package expt

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// csrDiff compares two graphs arc for arc — the same offsets, targets and
// weights — and describes the first difference ("" when there is none).
func csrDiff(a, b *graph.Graph) string {
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		return fmt.Sprintf("%d vertices / %d arcs vs %d / %d", a.NumVertices(), a.NumArcs(), b.NumVertices(), b.NumArcs())
	}
	for u := 0; u < a.NumVertices(); u++ {
		ta, wa := a.Neighbors(u)
		tb, wb := b.Neighbors(u)
		if !slices.Equal(ta, tb) || !slices.Equal(wa, wb) {
			return fmt.Sprintf("adjacency of vertex %d differs", u)
		}
	}
	return ""
}

// TestGeneratorsReproducible builds every generator the commands and the
// experiments can reach twice in one process and requires the same CSR and
// the same planted truth: a seeded generator is a function of its seed.
func TestGeneratorsReproducible(t *testing.T) {
	type builder func() (*graph.Graph, graph.Membership, error)
	check := func(name string, build builder) {
		t.Run(name, func(t *testing.T) {
			g1, t1, err := build()
			if err != nil {
				t.Fatal(err)
			}
			g2, t2, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if d := csrDiff(g1, g2); d != "" {
				t.Errorf("two builds differ: %s", d)
			}
			if !slices.Equal(t1, t2) {
				t.Error("two builds plant different memberships")
			}
		})
	}

	specs := []string{
		"rmat:scale=10,seed=3",
		"rmat:scale=10,skew=0.7,seed=3",
		"ba:n=3000,m=4,seed=3",
		"lfr:n=1500,mu=0.3,seed=3",
		"er:n=800,p=0.01,seed=3",
		"sbm:blocks=4,size=80,pin=0.3,pout=0.01,seed=3",
		"caveman:cliques=10,size=6",
	}
	// The kinds ParseSpec knows are the ones its unknown-kind error lists;
	// a kind added there without a spec here fails the test.
	_, _, err := gen.ParseSpec("?")
	m := regexp.MustCompile(`\(want ([a-z|]+)\)`).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		t.Fatalf("cannot read the generator kinds out of %q", err)
	}
	for _, kind := range strings.Split(m[1], "|") {
		if !slices.ContainsFunc(specs, func(s string) bool { return strings.HasPrefix(s, kind+":") }) {
			t.Errorf("generator kind %q has no spec in this test", kind)
		}
	}
	for _, spec := range specs {
		check(spec, func() (*graph.Graph, graph.Membership, error) { return gen.ParseSpec(spec) })
	}
	for _, d := range Datasets() {
		if d.Large && testing.Short() {
			continue
		}
		check(d.Name, d.Generate)
	}
}
