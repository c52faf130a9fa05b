package harness

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dserver"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/quality"
)

// Latency limits of serve-mixed. A read answered later than readLimit
// after it was due is slow; a read whose service alone took longer than
// blockedLimit met a held lock.
const (
	readLimit    = 10 * time.Millisecond
	blockedLimit = time.Millisecond
	// lateLimit is how long after its due time a send counts as late; a
	// sleeping goroutine alone wakes up to a millisecond late on this box.
	lateLimit = 2 * time.Millisecond
)

// servePlan is the two request streams and what the writer's ops are.
type servePlan struct {
	streams [][]Request    // 0 = reader, 1 = writer
	ops     [][]dserver.Op // per writer request
}

// planServe draws both schedules from loadgen.NewPlan, which is
// deterministic in its seed: a reader plan with no updates in it and
// Poisson gaps at ReadRate, a writer plan of nothing but updates at
// UpdateRate. Only the plan is loadgen's; the pacing is RunOpenLoop's.
func planServe(n int, seed int64, sz Sizes, window time.Duration) servePlan {
	count := func(rate float64) int { return int(rate*window.Seconds()*1.3) + 50 }
	// UpdateFrac 0 would mean loadgen's default of 0.2; a denormal share is
	// "none" in practice, and a stray update is dropped below.
	reads := loadgen.NewPlan(n, loadgen.Config{
		Tenants: 1, Requests: count(sz.ReadRate), Seed: genSeed(seed, 4, 0),
		UpdateFrac: math.SmallestNonzeroFloat64, BatchSize: sz.BatchOps, Rate: sz.ReadRate,
	})
	writes := loadgen.NewPlan(n, loadgen.Config{
		Tenants: 1, Requests: count(sz.UpdateRate), Seed: genSeed(seed, 5, 0),
		UpdateFrac: 1, BatchSize: sz.BatchOps, Rate: sz.UpdateRate,
	})
	var pl servePlan
	pl.streams = make([][]Request, 2)
	var due time.Duration
	for _, rq := range reads.Streams[0] {
		due += rq.Gap
		switch rq.Kind {
		case loadgen.ReqCommunity:
			pl.streams[0] = append(pl.streams[0], Request{Due: due, Line: "community " + strconv.Itoa(rq.V)})
		case loadgen.ReqNeighborhood:
			pl.streams[0] = append(pl.streams[0], Request{Due: due, Line: "neighborhood " + strconv.Itoa(rq.V)})
		case loadgen.ReqModularity:
			pl.streams[0] = append(pl.streams[0], Request{Due: due, Line: "modularity"})
		}
	}
	due = 0
	for _, rq := range writes.Streams[0] {
		due += rq.Gap
		if rq.Kind != loadgen.ReqUpdate {
			continue
		}
		var b strings.Builder
		b.WriteString("update ")
		for i, op := range rq.Ops {
			if i > 0 {
				b.WriteByte(';')
			}
			if op.Del {
				fmt.Fprintf(&b, "-%d,%d", op.U, op.V)
			} else {
				fmt.Fprintf(&b, "+%d,%d,%s", op.U, op.V, strconv.FormatFloat(op.W, 'g', -1, 64))
			}
		}
		pl.streams[1] = append(pl.streams[1], Request{Due: due, Line: b.String(), Update: true})
		pl.ops = append(pl.ops, rq.Ops)
	}
	return pl
}

// field returns the value of key= in a reply line.
func field(reply, key string) (string, bool) {
	for _, f := range strings.Fields(reply) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v, true
		}
	}
	return "", false
}

// wellFormed checks a reply against the line protocol's grammar for the
// request it answers. An "error:" reply is malformed by definition: the
// workload sends nothing the server may refuse.
func wellFormed(line, reply string, n int) bool {
	verb, arg, _ := strings.Cut(line, " ")
	f := strings.Fields(reply)
	if len(f) == 0 || f[0] != verb {
		return false
	}
	switch verb {
	case "community":
		if len(f) != 3 || f[1] != arg {
			return false
		}
		c, err := strconv.Atoi(f[2])
		return err == nil && c >= 0 && c < n
	case "neighborhood":
		if len(f) < 2 || f[1] != arg {
			return false
		}
		for _, a := range f[2:] {
			to, w, ok := strings.Cut(a, ":")
			if !ok {
				return false
			}
			if t, err := strconv.Atoi(to); err != nil || t < 0 || t >= n {
				return false
			}
			if _, err := strconv.ParseFloat(w, 64); err != nil {
				return false
			}
		}
		return true
	case "modularity":
		if len(f) != 2 {
			return false
		}
		_, err := strconv.ParseFloat(f[1], 64)
		return err == nil
	case "update":
		mode, ok := field(reply, "mode")
		if len(f) < 2 || f[1] != "ok" || !ok || (mode != "incremental" && mode != "full") {
			return false
		}
		q, ok := field(reply, "q")
		if !ok {
			return false
		}
		_, err := strconv.ParseFloat(q, 64)
		return err == nil
	}
	return false
}

// serve runs serve-mixed.
func (r *run) serve() error {
	sz := r.cfg.Sizes
	n := sz.ServeN
	// Set-up: what `gengraph` and then `dserver -graph FILE -auto-resolve`
	// do before the first request can be answered, once per instance (see
	// instance in batch.go for why there are several). The last world stays
	// and is the one served.
	var (
		w     *dserver.World
		g     *graph.Graph
		truth graph.Membership
		sts   []setupTimes
		paths []string
		lastQ float64

		setups, reads, builds, news, partS, toReady []float64
		sims, wires, hubs, imbalance, ghosts        []float64
	)
	for k := 0; k < sz.Instances; k++ {
		if w != nil {
			if err := w.Close(); err != nil {
				return err
			}
		}
		path := r.graphPath(k)
		t, st, err := r.writeGraphFile(true, n, path, k)
		if err != nil {
			return err
		}
		truth = t
		sts = append(sts, st)
		paths = append(paths, path)
		root := r.rec.Open("setup.world", NoSpan, -1, k)
		s, err := r.stage(path, false, root, k)
		if err != nil {
			return err
		}
		g = s.g
		t0 := time.Now()
		w, err = dserver.New(g, dserver.Options{P: P, AutoResolve: true})
		if err != nil {
			return err
		}
		t1 := time.Now()
		r.rec.Add("dserver.new", t0, t1, root, -1, k)
		r.rec.Close(root)
		// dserver.New partitions again inside; the Build in stage is the same
		// call made where it can be timed, and is not part of set-up.
		setups = append(setups, (st.total + s.ingest + t1.Sub(t0)).Seconds())
		reads = append(reads, s.ingest.Seconds())
		builds = append(builds, s.build.Seconds())
		news = append(news, t1.Sub(t0).Seconds())
		// On this workload the batch metrics describe the way to a world
		// that answers: file to layout, and file to resident solved world.
		partS = append(partS, (s.ingest + s.build).Seconds())
		toReady = append(toReady, (s.ingest + t1.Sub(t0)).Seconds())

		// One batch solve of the served graph gives the count metrics of
		// the initial solve, which the world does not expose, and the Q the
		// world must have started from.
		res, err := core.RunLayout(s.layout, core.Options{P: P, DHigh: s.dhigh})
		if err != nil {
			return err
		}
		sims = append(sims, float64(res.Stage1Sim+res.Stage2Sim)/1e6)
		wires = append(wires, float64(res.CommStats.TotalBytesSent())/1e6)
		hubs = append(hubs, float64(res.HubCount))
		imbalance = append(imbalance, res.Census.ImbalanceW())
		ghosts = append(ghosts, float64(res.Census.MaxGhosts()))
		lastQ = res.Modularity
	}
	defer w.Close()
	r.vals.median("setup_s", setups)
	if err := r.recordSetup(true, paths, sts); err != nil {
		return err
	}
	r.vals.median("graph.open_readall_s", reads)
	if m := Median(reads); m > 0 {
		r.vals.set("graph.ingest_mb_per_s", r.vals.v["graph.file_mb"]/m)
	}
	r.vals.median("partition.build_s", builds)
	r.vals.median("dserver.new_s", news)
	r.vals.set("partition_s", Mean(partS))
	r.vals.set("pipeline_s", Mean(toReady))
	r.vals.samples["partition_s"], r.vals.samples["pipeline_s"] = len(partS), len(toReady)
	r.vals.set("sim_parallel_ms", Mean(sims))
	r.vals.set("wire_mb", Mean(wires))
	r.vals.set("partition.hubs", Mean(hubs))
	r.vals.set("partition.imbalance_w", Mean(imbalance))
	r.vals.set("partition.max_ghosts", Mean(ghosts))
	startQ := w.Stats().Modularity
	r.check(math.Abs(startQ-lastQ) <= 1e-9, "world starts at Q %v, a batch solve of the same graph gives %v", startQ, lastQ)

	// The ledger the plan implies, kept beside the world's own.
	ledger := make(map[[2]int]bool, g.NumEdges())
	for _, e := range g.Edges() {
		ledger[edgePair(e.U, e.V)] = true
	}
	g = nil

	t0 := time.Now()
	plan := planServe(n, r.cfg.Seed, sz, r.cfg.Window)
	r.vals.set("loadgen.plan_s", time.Since(t0).Seconds())

	var parse []float64
	for _, rq := range plan.streams[1] {
		payload := strings.TrimPrefix(rq.Line, "update ")
		t0 := time.Now()
		_, err := dserver.ParseOps(payload)
		parse = append(parse, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("plan line %q: %w", rq.Line, err)
		}
	}
	r.vals.median("dserver.parse_ops_us", parse)

	runtime.GC()
	hw := startHeapWatch()
	root := r.rec.Open("serve.window", NoSpan, -1, 0)
	outs := RunOpenLoop(r.cfg.Window, plan.streams, w.HandleLine, r.rec, "dserver.handle_line", root)
	r.rec.Close(root)
	r.vals.set("peak_heap_mb", hw.Stop())

	// Every request is an attempt; a dropped, refused or malformed one
	// fails, and misses every latency limit.
	var readLat, readSvc, upLat, upInc, upFull, lag []float64
	var slow, blocked, late, sent int
	for si, stream := range outs {
		for i, o := range stream {
			ok := !o.Dropped && wellFormed(o.Line, o.Reply, n)
			r.check(ok, "stream %d request %d %q: reply %q", si, i, o.Line, o.Reply)
			if !o.Dropped {
				sent++
				lag = append(lag, float64(o.Lag)/1e6)
				if o.Sent-o.Due > lateLimit {
					late++
				}
			}
			if o.Update {
				if !ok {
					continue
				}
				for _, op := range plan.ops[i] {
					if op.Del {
						delete(ledger, edgePair(op.U, op.V))
					} else {
						ledger[edgePair(op.U, op.V)] = true
					}
				}
				upLat = append(upLat, float64(o.Latency())/1e6)
				if mode, _ := field(o.Reply, "mode"); mode == "full" {
					upFull = append(upFull, float64(o.Service())/1e6)
				} else {
					upInc = append(upInc, float64(o.Service())/1e6)
				}
				continue
			}
			if !ok {
				slow++
				continue
			}
			readLat = append(readLat, float64(o.Latency())/1e6)
			readSvc = append(readSvc, float64(o.Service())/1e3)
			if o.Latency() > readLimit {
				slow++
			}
			if o.Service() > blockedLimit {
				blocked++
			}
		}
	}
	nReads := len(outs[0])
	if nReads == 0 || len(upLat) == 0 {
		return fmt.Errorf("window %v too short: %d reads, %d updates", r.cfg.Window, nReads, len(upLat))
	}

	// The final stats line: the world's counters against the plan's.
	reply := w.HandleLine("stats")
	stats := w.Stats()
	edges, _ := field(reply, "edges")
	batches, _ := field(reply, "batches")
	qHex, _ := field(reply, "q")
	finalQ, qErr := strconv.ParseFloat(qHex, 64)
	r.check(strings.HasPrefix(reply, "stats ") && qErr == nil, "final stats line %q", reply)
	r.check(edges == strconv.Itoa(len(ledger)), "stats says %s edges, the plan implies %d", edges, len(ledger))
	r.check(batches == strconv.Itoa(len(upLat)), "stats says %s batches, %d updates were answered", batches, len(upLat))
	m, err := w.Membership()
	if err != nil {
		return err
	}
	r.hash = hashMembership(m)
	nmi, err := quality.NMI(m, truth)
	if err != nil {
		return err
	}
	r.vals.set("modularity", finalQ)
	r.vals.set("nmi", nmi)

	// The latencies a client of the service sees. They exist on this
	// workload only, so they are reported with the per-layer list.
	r.tail("serve.read_p99_ms", readLat, 99)
	r.vals.set("serve.read_slow_frac", float64(slow)/float64(nReads))
	r.vals.samples["serve.read_slow_frac"] = nReads
	r.vals.median("serve.update_p50_ms", upLat)
	r.tail("serve.update_p80_ms", upLat, 80)

	r.vals.median("dserver.read_service_p50_us", readSvc)
	r.vals.set("dserver.read_blocked_frac", float64(blocked)/float64(nReads))
	r.vals.median("dserver.update_incremental_p50_ms", upInc)
	r.vals.median("dserver.update_full_p50_ms", upFull)
	if stats.Batches > 0 {
		r.vals.set("dserver.full_fallback_frac", float64(stats.Full)/float64(stats.Batches))
	}
	r.tail("loadgen.lag_p99_ms", lag, 99)
	r.vals.set("loadgen.sent", float64(sent))
	r.vals.set("loadgen.late_frac", float64(late)/float64(max(sent, 1)))

	if r.cfg.Trace {
		// A span is one mutex-guarded append per request; its cost against
		// the median read is the whole of this workload's tracing overhead.
		probe := NewRecorder()
		const probes = 100000
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			probe.Add("probe", t0, t0, NoSpan, 0, i)
		}
		perSpanUS := float64(time.Since(t0)) / 1e3 / probes
		if p50 := Median(readSvc); p50 > 0 {
			r.vals.set("trace.overhead_ratio", (p50+perSpanUS)/p50)
		}
	}
	return nil
}

func edgePair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
