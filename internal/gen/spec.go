package gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ParseSpec builds a graph from a compact textual generator spec, used by
// the command-line tools:
//
//	rmat:scale=12,ef=16,seed=1
//	rmat:scale=12,skew=0.7,seed=1
//	rmat:scale=12,a=0.6,b=0.17,c=0.17,d=0.06,seed=1
//	ba:n=10000,m=4,seed=1
//	lfr:n=5000,mu=0.3,seed=1
//	er:n=1000,p=0.01,seed=1
//	sbm:blocks=4,size=100,pin=0.3,pout=0.01,seed=1
//	caveman:cliques=10,size=6
//
// For rmat, `skew` sets the A quadrant probability and splits the rest over
// B/C/D in Graph500 proportions (gen.SetSkew; skew=0.57 is exactly
// Graph500); explicit a/b/c/d override all four and must sum to 1.
//
// The returned membership is the planted ground truth (nil for generators
// without one).
func ParseSpec(spec string) (*graph.Graph, graph.Membership, error) {
	return parseSpec(spec, nil)
}

// Load is the commands' shared -graph/-gen resolution: exactly one of path
// (a graph file, decoded by graph.ReadFile) and spec (a ParseSpec generator
// spec) must be set. The membership is the planted truth of a generated
// graph, nil for a file.
func Load(path, spec string, workers int) (*graph.Graph, graph.Membership, error) {
	switch {
	case path != "" && spec != "":
		return nil, nil, fmt.Errorf("pass either -graph or -gen, not both")
	case path != "":
		g, err := graph.ReadFile(path, workers)
		return g, nil, err
	case spec != "":
		return ParseSpec(spec)
	default:
		return nil, nil, fmt.Errorf("pass -graph FILE or -gen SPEC (e.g. -gen lfr:n=5000,mu=0.3)")
	}
}

// ParseRMATSpec parses an `rmat:…` spec (same syntax as ParseSpec) into
// its configuration without generating any edges — the streaming generator
// consumes the config directly.
func ParseRMATSpec(spec string) (RMATConfig, error) {
	var cfg RMATConfig
	_, _, err := parseSpec(spec, &cfg)
	return cfg, err
}

// parseSpec does the work of ParseSpec; with wantRMAT non-nil it instead
// stores the parsed rmat config there and builds nothing.
func parseSpec(spec string, wantRMAT *RMATConfig) (*graph.Graph, graph.Membership, error) {
	kind, args, _ := strings.Cut(spec, ":")
	kv := map[string]string{}
	if args != "" {
		for _, part := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, nil, fmt.Errorf("gen: bad spec parameter %q in %q", part, spec)
			}
			kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	geti := func(key string, def int) (int, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("gen: spec %s: bad %s=%q: %v", kind, key, v, err)
		}
		return n, nil
	}
	getf := func(key string, def float64) (float64, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("gen: spec %s: bad %s=%q: %v", kind, key, v, err)
		}
		return f, nil
	}
	var firstErr error
	i := func(key string, def int) int {
		n, err := geti(key, def)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return n
	}
	f := func(key string, def float64) float64 {
		x, err := getf(key, def)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return x
	}

	rmatConfig := func() RMATConfig {
		cfg := Graph500RMAT(i("scale", 12), int64(i("seed", 1)))
		cfg.EdgeFactor = i("ef", 16)
		if _, hasSkew := kv["skew"]; hasSkew && firstErr == nil {
			if serr := cfg.SetSkew(f("skew", 0.57)); serr != nil && firstErr == nil {
				firstErr = serr
			}
		}
		cfg.A = f("a", cfg.A)
		cfg.B = f("b", cfg.B)
		cfg.C = f("c", cfg.C)
		cfg.D = f("d", cfg.D)
		return cfg
	}
	if wantRMAT != nil {
		if kind != "rmat" {
			return nil, nil, fmt.Errorf("gen: spec %q is not an rmat spec", spec)
		}
		cfg := rmatConfig()
		if firstErr != nil {
			return nil, nil, firstErr
		}
		*wantRMAT = cfg
		return nil, nil, nil
	}

	var g *graph.Graph
	var truth graph.Membership
	var err error
	switch kind {
	case "rmat":
		cfg := rmatConfig()
		if firstErr == nil {
			g, err = RMAT(cfg)
		}
	case "ba":
		if firstErr == nil {
			g, err = BarabasiAlbert(i("n", 10000), i("m", 4), int64(i("seed", 1)))
		}
	case "lfr":
		if firstErr == nil {
			g, truth, err = LFR(DefaultLFR(i("n", 5000), f("mu", 0.3), int64(i("seed", 1))))
		}
	case "er":
		if firstErr == nil {
			g, err = ErdosRenyi(i("n", 1000), f("p", 0.01), int64(i("seed", 1)))
		}
	case "sbm":
		blocks := i("blocks", 4)
		size := i("size", 100)
		sizes := make([]int, blocks)
		for b := range sizes {
			sizes[b] = size
		}
		if firstErr == nil {
			g, truth, err = SBM(sizes, f("pin", 0.3), f("pout", 0.01), int64(i("seed", 1)))
		}
	case "caveman":
		if firstErr == nil {
			g, truth, err = Caveman(i("cliques", 10), i("size", 6))
		}
	default:
		return nil, nil, fmt.Errorf("gen: unknown generator %q (want rmat|ba|lfr|er|sbm|caveman)", kind)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return g, truth, nil
}
