// Package loadgen drives a resident dserver world with a multi-tenant
// query/update mix and measures serving latency and throughput.
//
// The generator is split into a deterministic plan and a timed run. The
// plan — which tenant issues which request, in which order, with which
// edge ops — is a pure function of Config.Seed, so tests can replay it and
// pin the world's final state bit-for-bit. Timing enters only in the run:
// open-loop Poisson arrivals (Rate > 0) paced by the wall clock, or a
// closed loop (Rate <= 0) that issues each tenant's next request as soon
// as the previous one returns.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dserver"
	"repro/internal/trace"
)

// Config shapes one load run.
type Config struct {
	// Tenants is the number of concurrent request streams.
	Tenants int
	// Requests is the total number of requests across all tenants.
	Requests int
	// Seed drives every random choice in the plan (request kinds, targets,
	// edge ops, inter-arrival gaps). Same seed, same plan.
	Seed int64
	// UpdateFrac is the fraction of requests that are edge-update batches;
	// the rest split evenly between community, neighborhood, and
	// modularity queries. Default 0.2.
	UpdateFrac float64
	// BatchSize is the number of edge ops per update request. Default 4.
	BatchSize int
	// Rate is the total offered load in requests/second across all
	// tenants, Poisson arrivals (open loop). <= 0 runs closed-loop: no
	// pacing, each tenant fires its next request immediately.
	Rate float64
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.UpdateFrac <= 0 {
		c.UpdateFrac = 0.2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	return c
}

// ReqKind is the request type of one planned request.
type ReqKind int

const (
	ReqCommunity ReqKind = iota
	ReqNeighborhood
	ReqModularity
	ReqUpdate
)

func (k ReqKind) String() string {
	switch k {
	case ReqCommunity:
		return "community"
	case ReqNeighborhood:
		return "neighborhood"
	case ReqModularity:
		return "modularity"
	case ReqUpdate:
		return "update"
	}
	return fmt.Sprintf("ReqKind(%d)", int(k))
}

// Req is one planned request.
type Req struct {
	Tenant int
	Kind   ReqKind
	V      int           // query target for community/neighborhood
	Ops    []dserver.Op  // update payload
	Gap    time.Duration // open-loop inter-arrival gap before this request
}

// Plan is a deterministic request schedule: per-tenant streams drawn from
// Config.Seed. Tenant t owns the vertex-pair pool {(u,v) : hash(u,v) ≡ t
// (mod Tenants)} for its extra edges and churns each pair insert/delete in
// alternation, so concurrent tenants never invalidate each other's update
// batches.
type Plan struct {
	Config  Config
	Streams [][]Req
}

// NewPlan builds the deterministic request schedule for a world over n
// vertices. It issues no requests and reads no clock.
func NewPlan(n int, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	pl := &Plan{Config: cfg, Streams: make([][]Req, cfg.Tenants)}
	perTenant := cfg.Requests / cfg.Tenants
	for tn := 0; tn < cfg.Tenants; tn++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(tn)*7919))
		held := make(map[[2]int]bool)
		reqs := make([]Req, 0, perTenant)
		for i := 0; i < perTenant; i++ {
			r := Req{Tenant: tn}
			if cfg.Rate > 0 {
				// Exponential inter-arrival at this tenant's share of the
				// offered load.
				lambda := cfg.Rate / float64(cfg.Tenants)
				r.Gap = time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
			}
			switch x := rng.Float64(); {
			case x < cfg.UpdateFrac:
				r.Kind = ReqUpdate
				r.Ops = planOps(rng, n, cfg, tn, held)
			case x < cfg.UpdateFrac+(1-cfg.UpdateFrac)/3:
				r.Kind = ReqCommunity
				r.V = rng.Intn(n)
			case x < cfg.UpdateFrac+2*(1-cfg.UpdateFrac)/3:
				r.Kind = ReqNeighborhood
				r.V = rng.Intn(n)
			default:
				r.Kind = ReqModularity
			}
			reqs = append(reqs, r)
		}
		pl.Streams[tn] = reqs
	}
	return pl
}

// planOps draws one tenant-safe update batch. Pairs come from the tenant's
// residue class of the pair hash, churned insert/delete so the batch is
// valid against the shared ledger regardless of interleaving.
func planOps(rng *rand.Rand, n int, cfg Config, tn int, held map[[2]int]bool) []dserver.Op {
	ops := make([]dserver.Op, 0, cfg.BatchSize)
	batch := make(map[[2]int]bool, cfg.BatchSize)
	for len(ops) < cfg.BatchSize {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if (u*31+v)%cfg.Tenants != tn {
			continue
		}
		k := [2]int{u, v}
		if batch[k] {
			continue // one op per pair per batch keeps churn simple
		}
		batch[k] = true
		if held[k] {
			ops = append(ops, dserver.Op{U: u, V: v, Del: true})
		} else {
			ops = append(ops, dserver.Op{U: u, V: v, W: 1})
		}
		held[k] = !held[k]
	}
	return ops
}

// Result summarizes one load run.
type Result struct {
	Config     Config
	Wall       time.Duration // wall time of the whole run
	Requests   int
	Updates    int
	Errors     int
	Throughput float64 // achieved requests/second
	P50        time.Duration
	P99        time.Duration
	Max        time.Duration
	// Saturated reports that the run could not keep up with the offered
	// load: achieved throughput fell below 90% of Config.Rate.
	Saturated bool
}

func (r Result) String() string {
	return fmt.Sprintf("tenants=%d rate=%.0f/s achieved=%.0f/s p50=%v p99=%v max=%v errs=%d saturated=%v",
		r.Config.Tenants, r.Config.Rate, r.Throughput, r.P50, r.P99, r.Max, r.Errors, r.Saturated)
}

// Run executes the plan against w: one goroutine per tenant, each walking
// its stream in order. Latency is measured per request; Poisson pacing
// applies when the plan was built with Rate > 0.
func Run(w *dserver.World, pl *Plan) Result {
	type tenantOut struct {
		lats []time.Duration
		ups  int
		errs int
	}
	outs := make([]tenantOut, len(pl.Streams))
	start := trace.Now()
	done := make(chan int, len(pl.Streams))
	for tn := range pl.Streams {
		go func(tn int) {
			defer func() { done <- tn }()
			o := &outs[tn]
			o.lats = make([]time.Duration, 0, len(pl.Streams[tn]))
			for _, r := range pl.Streams[tn] {
				if r.Gap > 0 {
					time.Sleep(r.Gap)
				}
				t0 := trace.Now()
				var err error
				switch r.Kind {
				case ReqCommunity:
					_, err = w.CommunityOf(r.V)
				case ReqNeighborhood:
					_, err = w.Neighborhood(r.V)
				case ReqModularity:
					_, err = w.Modularity()
				case ReqUpdate:
					_, err = w.Update(r.Ops)
					o.ups++
				}
				o.lats = append(o.lats, trace.Since(t0))
				if err != nil {
					o.errs++
				}
			}
		}(tn)
	}
	for range pl.Streams {
		<-done
	}
	wall := trace.Since(start)

	res := Result{Config: pl.Config, Wall: wall}
	var all []time.Duration
	for _, o := range outs {
		all = append(all, o.lats...)
		res.Updates += o.ups
		res.Errors += o.errs
	}
	res.Requests = len(all)
	if wall > 0 {
		res.Throughput = float64(res.Requests) / wall.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		res.P50 = all[len(all)/2]
		res.P99 = all[min(len(all)-1, len(all)*99/100)]
		res.Max = all[len(all)-1]
	}
	if pl.Config.Rate > 0 && res.Throughput < 0.9*pl.Config.Rate {
		res.Saturated = true
	}
	return res
}

// Replay issues the plan's requests sequentially in a fixed global order —
// round-robin across tenant streams — with no goroutines and no clock.
// Unlike Run, whose tenant interleaving is scheduler-dependent, Replay
// leaves the world in a state that is a pure function of (graph, options,
// plan), which is what the deterministic tests pin.
func Replay(w *dserver.World, pl *Plan) (Result, error) {
	var res Result
	res.Config = pl.Config
	next := make([]int, len(pl.Streams))
	for {
		progress := false
		for tn, stream := range pl.Streams {
			if next[tn] >= len(stream) {
				continue
			}
			progress = true
			r := stream[next[tn]]
			next[tn]++
			var err error
			switch r.Kind {
			case ReqCommunity:
				_, err = w.CommunityOf(r.V)
			case ReqNeighborhood:
				_, err = w.Neighborhood(r.V)
			case ReqModularity:
				_, err = w.Modularity()
			case ReqUpdate:
				_, err = w.Update(r.Ops)
				res.Updates++
			}
			res.Requests++
			if err != nil {
				res.Errors++
				return res, fmt.Errorf("tenant %d request %d (%v): %w", tn, next[tn]-1, r.Kind, err)
			}
		}
		if !progress {
			return res, nil
		}
	}
}
