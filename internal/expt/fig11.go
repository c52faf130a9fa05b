package expt

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// fig11Graph builds the R-MAT or BA synthetic input of Figure 11.
func fig11Graph(kind string, scale int, seed int64) (*graph.Graph, error) {
	switch kind {
	case "R-MAT":
		cfg := gen.Graph500RMAT(scale, seed)
		cfg.EdgeFactor = 16 // paper: edge scale = vertex scale + 4
		return gen.RMAT(cfg)
	case "BA":
		return gen.BarabasiAlbert(1<<scale, 8, seed)
	default:
		return nil, fmt.Errorf("expt: unknown synthetic kind %q", kind)
	}
}

// fig11 reproduces Figure 11: (a) strong scaling and (b) weak scaling of
// the clustering time on R-MAT and BA graphs.
// Its synthetic graphs are not stand-ins and no other lane solves them, so
// it runs core directly.
func (s *Suite) fig11() ([]*Table, error) {
	p := s.Profile
	scale := 12 // vertices of the strong-scaling graphs: 2^scale (the paper uses 2³⁰ on Titan)
	if p.IncludeLarge {
		scale = 15
	}
	strong := &Table{
		Title:  fmt.Sprintf("Figure 11(a) — strong scaling on R-MAT and BA (2^%d vertices)", scale),
		Header: []string{"Graph", "p", "clustering (ms)", "speedup", "Q"},
		Notes: []string{
			"paper: ~80% parallel efficiency up to 32768 processors on 2^30-vertex graphs",
		},
	}
	for _, kind := range []string{"R-MAT", "BA"} {
		g, err := fig11Graph(kind, scale, 900)
		if err != nil {
			return nil, err
		}
		var base float64
		for _, pp := range p.Procs[1:] {
			res, err := core.Run(g, core.Options{P: pp})
			if err != nil {
				return nil, err
			}
			cl := clustering(res)
			if base == 0 {
				base = float64(cl)
			}
			strong.AddRow(kind, pp, ms(cl),
				fmt.Sprintf("%.2f", base/float64(cl)), res.Modularity)
		}
	}

	weak := &Table{
		Title:  "Figure 11(b) — weak scaling (fixed vertices per rank)",
		Header: []string{"Graph", "p", "global vertices", "clustering (ms)"},
		Notes: []string{
			"paper's shape: BA nearly flat; R-MAT slightly negative slope (fewer iterations at larger sizes)",
		},
	}
	perRank := scale - 4 // vertices per rank = 2^(scale-4)
	for _, kind := range []string{"R-MAT", "BA"} {
		for _, pp := range p.Procs[1:] {
			gscale := perRank + bits.Len(uint(pp)) - 1 // + log₂ p
			g, err := fig11Graph(kind, gscale, 901)
			if err != nil {
				return nil, err
			}
			res, err := core.Run(g, core.Options{P: pp})
			if err != nil {
				return nil, err
			}
			weak.AddRow(kind, pp, g.NumVertices(), ms(clustering(res)))
		}
	}
	return []*Table{strong, weak}, nil
}
