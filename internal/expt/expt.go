package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quality"
)

// Lane is one experiment: the name cmd/experiments -only selects it by and
// the runner that produces its tables.
type Lane struct {
	Name string
	Run  func(*Suite) ([]*Table, error)
}

// Lanes lists every experiment in the order cmd/experiments runs them.
func Lanes() []Lane {
	return []Lane{
		{"table1", (*Suite).table1},
		{"fig5", (*Suite).fig5},
		{"table2", (*Suite).table2},
		{"fig6", (*Suite).fig6},
		{"fig7", (*Suite).fig7},
		{"fig8", (*Suite).fig8},
		{"fig9", (*Suite).fig9},
		{"fig10", (*Suite).fig10},
		{"fig11", (*Suite).fig11},
		{"comm", (*Suite).comm},
		{"gpu", (*Suite).gpu},
		{"converge", (*Suite).converge},
		{"hubs", (*Suite).hubs},
	}
}

// Suite is one run of the lanes at one profile. It builds each stand-in
// graph once and solves each (dataset, core.Options) once, however many
// lanes ask for it: the delegate rows of fig7, fig8, comm and gpu, the
// p = DefaultP runs of fig5 and table2, and fig10 all read fig9's solves.
// Every solved number is a function of (graph, options), so sharing a
// result changes no table. A Suite is not safe for concurrent use.
type Suite struct {
	Profile Profile
	graphs  map[string]standIn
	solves  map[solveKey]*core.Result
}

type standIn struct {
	g     *graph.Graph
	truth graph.Membership
}

type solveKey struct {
	dataset string
	opt     core.Options
}

// NewSuite returns an empty suite for the profile.
func NewSuite(p Profile) *Suite {
	return &Suite{Profile: p, graphs: map[string]standIn{}, solves: map[solveKey]*core.Result{}}
}

// load returns the named dataset's graph and planted truth (nil when it
// has none), generating it on first use.
func (s *Suite) load(name string) (*graph.Graph, graph.Membership, error) {
	if l, ok := s.graphs[name]; ok {
		return l.g, l.truth, nil
	}
	d, err := ByName(name)
	if err != nil {
		return nil, nil, err
	}
	g, truth, err := d.Generate()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %s: %w", name, err)
	}
	s.graphs[name] = standIn{g, truth}
	return g, truth, nil
}

// solve returns core.Run of the named dataset under opt, solving it on
// first use.
func (s *Suite) solve(name string, opt core.Options) (*core.Result, error) {
	key := solveKey{name, opt}
	if res, ok := s.solves[key]; ok {
		return res, nil
	}
	g, _, err := s.load(name)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(g, opt)
	if err != nil {
		return nil, fmt.Errorf("%s p=%d: %w", name, opt.P, err)
	}
	s.solves[key] = res
	return res, nil
}

// fig6Graph names and loads the graph Figures 6 and 8 and the comm and gpu
// lanes analyze: UK-2007's stand-in, as in the paper, or YouTube's, the
// largest scale-free stand-in, when the profile skips the large ones.
func (s *Suite) fig6Graph() (string, *graph.Graph, error) {
	name := "UK-2007"
	if !s.Profile.IncludeLarge {
		name = "YouTube"
	}
	g, _, err := s.load(name)
	return name, g, err
}

// clustering is a result's simulated parallel clustering time, both stages.
func clustering(res *core.Result) time.Duration { return res.Stage1Sim + res.Stage2Sim }

// mean accumulates the means over instances that the converge and hubs
// lanes report for one row.
type mean struct {
	dhigh, hubs, w, iters, levels, simMS, commMS, wireMB, q, nmi float64
	n                                                            int
}

func (m *mean) add(res *core.Result, truth graph.Membership) error {
	m.hubs += float64(res.HubCount)
	m.w += res.Census.ImbalanceW()
	m.iters += float64(res.Stage1Iters)
	m.levels += float64(res.OuterLevels)
	m.simMS += float64(clustering(res)) / 1e6
	m.commMS += float64(res.Stage1CommSim+res.Stage2CommSim) / 1e6
	m.wireMB += float64(res.CommStats.TotalBytesSent()) / 1e6
	m.q += res.Modularity
	if truth != nil {
		nmi, err := quality.NMI(res.Membership, truth)
		if err != nil {
			return err
		}
		m.nmi += nmi
	}
	m.n++
	return nil
}
