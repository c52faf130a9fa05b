package gen

import (
	"strings"
	"testing"
)

func TestParseSpecKinds(t *testing.T) {
	cases := []struct {
		spec      string
		vertices  int
		wantTruth bool
	}{
		{"rmat:scale=8,ef=8,seed=2", 256, false},
		{"ba:n=500,m=3,seed=2", 500, false},
		{"lfr:n=400,mu=0.2,seed=2", 400, true},
		{"er:n=300,p=0.02,seed=2", 300, false},
		{"sbm:blocks=3,size=50,pin=0.3,pout=0.01,seed=2", 150, true},
		{"caveman:cliques=5,size=4", 20, true},
		{"rmat:scale=8,ef=8,seed=2,skew=0.7", 256, false},
	}
	for _, c := range cases {
		g, truth, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if g.NumVertices() != c.vertices {
			t.Errorf("%s: %d vertices, want %d", c.spec, g.NumVertices(), c.vertices)
		}
		if (truth != nil) != c.wantTruth {
			t.Errorf("%s: truth presence = %v, want %v", c.spec, truth != nil, c.wantTruth)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	g, _, err := ParseSpec("ba")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10000 {
		t.Errorf("default ba n = %d", g.NumVertices())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"unknown:n=5",
		"ba:n",          // missing value
		"ba:n=abc",      // bad int
		"lfr:mu=oops",   // bad float
		"lfr:n=2,mu=.2", // invalid LFR bounds propagate
	} {
		if _, _, err := ParseSpec(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
	// A key the kind does not read, or one given twice, is refused by every
	// entry point with an error naming the key and the kind's accepted keys.
	for _, tc := range []struct{ spec, key, accepted string }{
		{"lfr:n=500,mux=0.9,sed=7", `unknown key "mux"`, "n mu seed"},
		{"lfr:n=500,n=600", `repeated key "n"`, "n mu seed"},
		{"ba:n=100,p=0.1", `unknown key "p"`, "n m seed"},
		{"er:n=100,mu=0.1", `unknown key "mu"`, "n p seed"},
		{"sbm:blocks=2,sizes=10", `unknown key "sizes"`, "blocks size pin pout seed"},
		{"caveman:cliques=4,size=5,seed=1", `unknown key "seed"`, "cliques size"},
		{"rmat:scale=8,sede=1", `unknown key "sede"`, "scale ef skew a b c d seed"},
		{"rmat:scale=8,seed=1,seed=2", `repeated key "seed"`, "scale ef skew a b c d seed"},
	} {
		_, _, err := ParseSpec(tc.spec)
		_, _, loadErr := Load("", tc.spec)
		errs := []error{err, loadErr}
		if strings.HasPrefix(tc.spec, "rmat:") {
			_, err := ParseRMATSpec(tc.spec)
			errs = append(errs, err)
		}
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.key) || !strings.Contains(err.Error(), "(accepted: "+tc.accepted+")") {
				t.Errorf("%q: err = %v, want one naming %s and accepting %q", tc.spec, err, tc.key, tc.accepted)
			}
		}
	}
}

func TestParseSpecErrorMentionsKind(t *testing.T) {
	_, _, err := ParseSpec("zzz:a=1")
	if err == nil || !strings.Contains(err.Error(), "zzz") {
		t.Errorf("err = %v", err)
	}
}
