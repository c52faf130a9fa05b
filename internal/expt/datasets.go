// Package expt is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V). Each experiment is a lane
// of Lanes returning formatted tables; cmd/experiments and the top-level
// benchmarks run the lanes on one Suite, which builds every stand-in and
// runs every solve once.
//
// The paper's real-world datasets (Table I) are multi-billion-edge web
// crawls that are not redistributable and far exceed a single machine; the
// registry below substitutes synthetic stand-ins with matched structure
// (power-law degree distributions, planted communities where ground truth
// is needed) at laptop scale, as documented in DESIGN.md §2. Every stand-in
// is deterministic for its fixed seed.
package expt

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset is one registered stand-in for a paper dataset.
type Dataset struct {
	// Name is the paper's dataset name.
	Name string
	// Description mirrors Table I's description column.
	Description string
	// PaperV and PaperE are the paper's reported sizes (display only).
	PaperV, PaperE string
	// Generate builds the stand-in graph; truth is nil when the dataset has
	// no planted communities.
	Generate func() (*graph.Graph, graph.Membership, error)
	// Large marks the stand-ins for the paper's "large" datasets, which
	// the quick experiment profile skips.
	Large bool
}

func lfr(n int, mu float64, seed int64) func() (*graph.Graph, graph.Membership, error) {
	return func() (*graph.Graph, graph.Membership, error) {
		return gen.LFR(gen.DefaultLFR(n, mu, seed))
	}
}

func rmat(scale, edgeFactor int, seed int64) func() (*graph.Graph, graph.Membership, error) {
	return func() (*graph.Graph, graph.Membership, error) {
		cfg := gen.Graph500RMAT(scale, seed)
		cfg.EdgeFactor = edgeFactor
		g, err := gen.RMAT(cfg)
		return g, nil, err
	}
}

func ba(n, m int, seed int64) func() (*graph.Graph, graph.Membership, error) {
	return func() (*graph.Graph, graph.Membership, error) {
		g, err := gen.BarabasiAlbert(n, m, seed)
		return g, nil, err
	}
}

// Datasets returns the ordered registry mirroring the paper's Table I.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name:        "Amazon",
			Description: "Frequently co-purchased products from Amazon",
			PaperV:      "0.34M", PaperE: "0.93M",
			Generate: lfr(6000, 0.25, 101),
		},
		{
			Name:        "DBLP",
			Description: "A co-authorship network from DBLP",
			PaperV:      "0.32M", PaperE: "1.05M",
			Generate: lfr(6000, 0.35, 102),
		},
		{
			Name:        "ND-Web",
			Description: "A web network of University of Notre Dame",
			PaperV:      "0.33M", PaperE: "1.50M",
			Generate: lfr(6000, 0.15, 103),
		},
		{
			Name:        "YouTube",
			Description: "YouTube friendship network",
			PaperV:      "1.13M", PaperE: "2.99M",
			Generate: ba(12000, 3, 104),
		},
		{
			Name:        "LiveJournal",
			Description: "A virtual-community social site",
			PaperV:      "3.99M", PaperE: "34.68M",
			Generate: rmat(13, 8, 105),
			Large:    true,
		},
		{
			Name:        "UK-2005",
			Description: "Web crawl of the .uk domain in 2005",
			PaperV:      "39.36M", PaperE: "936.36M",
			Generate: rmat(14, 12, 106),
			Large:    true,
		},
		{
			Name:        "WebBase-2001",
			Description: "A crawl graph by WebBase",
			PaperV:      "118.14M", PaperE: "1.01B",
			Generate: rmat(15, 14, 107),
			Large:    true,
		},
		{
			Name:        "Friendster",
			Description: "An on-line gaming network",
			PaperV:      "65.61M", PaperE: "1.81B",
			Generate: rmat(15, 14, 108),
			Large:    true,
		},
		{
			Name:        "UK-2007",
			Description: "Web crawl of the .uk domain in 2007",
			PaperV:      "105.9M", PaperE: "3.78B",
			Generate: rmat(16, 14, 109),
			Large:    true,
		},
		{
			Name:        "LFR",
			Description: "A synthetic graph with built-in community structure",
			PaperV:      "0.1M", PaperE: "1.6M",
			Generate: lfr(8000, 0.1, 110),
		},
	}
}

// ByName returns the registered dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("expt: unknown dataset %q", name)
}

// SmallDatasets returns the registry entries the quick profile runs.
func SmallDatasets() []Dataset {
	var out []Dataset
	for _, d := range Datasets() {
		if !d.Large {
			out = append(out, d)
		}
	}
	return out
}
