package harness

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/trace"
)

// Quality floors of batch-lfr at full size: the planted partition is found
// again, and the distributed Q stays near the plain single-threaded run's.
const (
	minLFRNMI       = 0.70
	minQOverSerialQ = 0.90
)

// setupTimes is one set-up of a graph file.
type setupTimes struct {
	gen, write, total time.Duration
}

// writeGraphFile makes one instance of the workload's input: an LFR graph
// written as a v2 .sbin (gengraph's in-RAM path), or an R-MAT streamed
// straight to one (gengraph -stream). batch-rmat and oocore-rmat pass the
// same generator seeds, so for one benchmark seed they read the same bytes.
func (r *run) writeGraphFile(lfr bool, n int, path string, inst int) (graph.Membership, setupTimes, error) {
	var st setupTimes
	sz := r.cfg.Sizes
	root := r.rec.Open("setup", NoSpan, -1, inst)
	defer r.rec.Close(root)
	t0 := time.Now()
	if !lfr {
		cfg := gen.Graph500RMAT(sz.RMATScale, genSeed(r.cfg.Seed, 2, inst))
		if _, err := gen.StreamRMAT(cfg, path, sz.Shards); err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		r.rec.Add("gen.stream_rmat", t0, t1, root, -1, inst)
		st.gen, st.total = t1.Sub(t0), t1.Sub(t0)
		return nil, st, nil
	}
	g, truth, err := gen.LFR(gen.DefaultLFR(n, sz.Mu, genSeed(r.cfg.Seed, 1, inst)))
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return nil, st, err
	}
	if err := graph.WriteBinaryShardedV2(f, g, sz.Shards); err != nil {
		f.Close()
		return nil, st, err
	}
	if err := f.Close(); err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	r.rec.Add("gen.lfr", t0, t1, root, -1, inst)
	r.rec.Add("graph.write_v2", t1, t2, root, -1, inst)
	st.gen, st.write, st.total = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	return truth, st, nil
}

// recordSetup stores the set-up metrics shared by all workloads.
func (r *run) recordSetup(lfr bool, paths []string, sts []setupTimes) error {
	var gens, writes []float64
	for _, st := range sts {
		gens = append(gens, st.gen.Seconds())
		writes = append(writes, st.write.Seconds())
	}
	if lfr {
		r.vals.median("gen.lfr_s", gens)
		r.vals.median("graph.write_v2_s", writes)
	} else {
		r.vals.median("gen.stream_rmat_s", gens)
	}
	var sizes []float64
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size())/1e6)
	}
	r.vals.set("graph.file_mb", Mean(sizes))
	return nil
}

// staged is a graph file turned into a partition layout.
type staged struct {
	layout *partition.Layout
	g      *graph.Graph // nil on the streaming path
	dhigh  int
	ingest time.Duration // open + ReadAll (0 on the streaming path)
	build  time.Duration // partition.Build, or open + BuildStreaming + close
}

// stage is the front half of a rep, file on disk to partition.Layout, by
// the call sequence of cmd/dlouvain: in RAM, decode everything and then
// partition.Build; streaming (-oocore), partition.BuildStreaming over the
// mapped file, which is then closed before the solve.
func (r *run) stage(path string, streaming bool, parent, rep int) (staged, error) {
	var s staged
	t0 := time.Now()
	sh, closer, err := graph.OpenShardedFile(path)
	if err != nil {
		return s, err
	}
	if streaming {
		s.dhigh = core.DefaultDHigh(P, sh.NumVertices(), sh.NumArcs())
		s.layout, err = partition.BuildStreaming(sh, partition.Options{P: P, Kind: partition.Delegate, DHigh: s.dhigh})
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return s, err
		}
		t1 := time.Now()
		r.rec.Add("partition.build_streaming", t0, t1, parent, -1, rep)
		s.build = t1.Sub(t0)
		return s, nil
	}
	s.g, err = sh.ReadAll(0)
	if cerr := closer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	s.dhigh = core.DefaultDHigh(P, s.g.NumVertices(), s.g.NumArcs())
	s.layout, err = partition.Build(s.g, partition.Options{P: P, Kind: partition.Delegate, DHigh: s.dhigh})
	if err != nil {
		return s, err
	}
	t2 := time.Now()
	r.rec.Add("graph.open_readall", t0, t1, parent, -1, rep)
	r.rec.Add("partition.build", t1, t2, parent, -1, rep)
	s.ingest, s.build = t1.Sub(t0), t2.Sub(t1)
	return s, nil
}

// batchRep is one rep, file on disk to membership.
// It keeps no layout or graph: reps pile up while the heap is watched.
type batchRep struct {
	inst                       int
	ingest, build, solve, pipe time.Duration

	q     float64
	hash  uint64
	m     graph.Membership // kept for an instance's first plain rep only
	res   *core.Result     // plain reps, without the Membership
	world *meteredWorld
}

// plainRep is the timed rep of the untraced run: stage, then core.RunLayout.
func (r *run) plainRep(in *instance, streaming bool, rep int) (batchRep, error) {
	path := in.path
	root := r.rec.Open("rep.run_layout", NoSpan, -1, rep)
	defer r.rec.Close(root)
	t0 := time.Now()
	s, err := r.stage(path, streaming, root, rep)
	if err != nil {
		return batchRep{}, err
	}
	t1 := time.Now()
	res, err := core.RunLayout(s.layout, core.Options{P: P, DHigh: s.dhigh})
	if err != nil {
		return batchRep{}, err
	}
	t2 := time.Now()
	// cmd/dlouvain holds the decoded graph until it exits; so does a rep.
	runtime.KeepAlive(s.g)
	r.rec.Add("core.run_layout", t1, t2, root, -1, rep)
	m := res.Membership
	res.Membership = nil
	return batchRep{
		inst: in.id, ingest: s.ingest, build: s.build, solve: t2.Sub(t1), pipe: t2.Sub(t0),
		q: res.Modularity, hash: hashMembership(m), m: m, res: res,
	}, nil
}

// meteredWorld is what a traced solve leaves behind.
type meteredWorld struct {
	counts  []MeterCounts
	inner   []comm.Snapshot // the wrapped endpoints' own counters
	spanIDs []int           // each rank's core.session_solve span
}

// meteredRep is the traced rep: stage, then a world of our own in which
// every rank's endpoint is wrapped in a Meter and driven through
// core.NewSession(...).Solve(). Solve also installs the resident serving
// state, which RunLayout's solve does not, so the span is named
// core.session_solve and its time and traffic sit a little above
// core.run_layout's; membership and Q must not differ at all.
func (r *run) meteredRep(in *instance, streaming bool, rep int) (batchRep, error) {
	path := in.path
	root := r.rec.Open("rep.session_solve", NoSpan, -1, rep)
	defer r.rec.Close(root)
	t0 := time.Now()
	s, err := r.stage(path, streaming, root, rep)
	if err != nil {
		return batchRep{}, err
	}
	t1 := time.Now()
	m, q, w, err := solveMetered(s.layout, core.Options{P: P, DHigh: s.dhigh}, r.rec, root, rep)
	if err != nil {
		return batchRep{}, err
	}
	t2 := time.Now()
	runtime.KeepAlive(s.g)
	return batchRep{
		inst: in.id, ingest: s.ingest, build: s.build, solve: t2.Sub(t1), pipe: t2.Sub(t0),
		q: q, hash: hashMembership(m), world: w,
	}, nil
}

// solveMetered runs one full solve on a metered in-process world and
// gathers the membership the way dserver.World.Membership does.
func solveMetered(layout *partition.Layout, opt core.Options, rec *Recorder, parent, rep int) (graph.Membership, float64, *meteredWorld, error) {
	n := layout.Parts[0].GlobalVertices
	m := make(graph.Membership, n)
	qs := make([]float64, P)
	w := &meteredWorld{
		counts: make([]MeterCounts, P), inner: make([]comm.Snapshot, P), spanIDs: make([]int, P),
	}
	err := comm.RunWorld(P, func(c comm.Comm) error {
		rank := c.Rank()
		id := rec.Open("core.session_solve", parent, rank, rep)
		mc := NewMeter(c, rec, id, rep)
		ses, err := core.NewSession(mc, layout.Parts[rank], opt)
		if err != nil {
			return err
		}
		defer ses.Close()
		if err := ses.Solve(); err != nil {
			return err
		}
		rec.Close(id)
		w.spanIDs[rank] = id
		w.counts[rank] = mc.Counts()
		w.inner[rank] = c.Stats().Snapshot()
		qs[rank] = ses.Modularity()
		// Tracked sets are disjoint across ranks: no two ranks write one slot.
		vertices, labels := ses.Tracked()
		for i, v := range vertices {
			m[v] = labels[i]
		}
		return nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	m.Normalize()
	return m, qs[0], w, nil
}

// instance is one generated graph of a run and what its reps found. A run
// draws several, because how many iterations a graph takes to converge
// swings pipeline time by a fifth from one graph to the next: a metric is
// the mean over the instances, so that one seed's luck does not decide it.
type instance struct {
	id      int
	path    string
	truth   graph.Membership // LFR only
	serialM graph.Membership // the first SerialInstances only
	serialQ float64
	first   *batchRep // the first plain rep: membership and core.Result
	plain   []batchRep
}

// batch runs batch-lfr, batch-rmat or oocore-rmat.
func (r *run) batch(lfr, streaming bool) error {
	sz := r.cfg.Sizes

	// Set-up: each instance is generated and written once; setup_s is the
	// median over the instances.
	insts := make([]*instance, sz.Instances)
	var sts []setupTimes
	var totals []float64
	var paths []string
	for k := range insts {
		in := &instance{id: k, path: r.graphPath(k)}
		t, st, err := r.writeGraphFile(lfr, sz.LFRN, in.path, k)
		if err != nil {
			return err
		}
		in.truth = t
		insts[k] = in
		sts = append(sts, st)
		totals = append(totals, st.total.Seconds())
		paths = append(paths, in.path)
	}
	r.vals.median("setup_s", totals)
	if err := r.recordSetup(lfr, paths, sts); err != nil {
		return err
	}

	// The reference: a plain single-threaded Louvain on the first few
	// instances, outside every timed window and gone before the heap is
	// watched.
	var serialS, serialQ []float64
	for _, in := range insts[:min(sz.SerialInstances, len(insts))] {
		d, err := r.serialBaseline(in)
		if err != nil {
			return err
		}
		serialS = append(serialS, d.Seconds())
		serialQ = append(serialQ, in.serialQ)
	}
	r.vals.median("louvain.serial_s", serialS)
	r.vals.set("louvain.serial_modularity", Mean(serialQ))

	for i := 0; i < sz.Warmups; i++ {
		if _, err := r.plainRep(insts[0], streaming, -1-i); err != nil {
			return err
		}
	}

	// The timed window: plain reps walk the instances round and round
	// until the window is over and each has been timed at least once. The
	// traced run makes every third rep a metered one, so both kinds see
	// the same machine state and their ratio is the tracing overhead.
	var metered []batchRep
	nPlain := 0
	hw := startHeapWatch()
	start := time.Now()
	for rep := 0; time.Since(start) < r.cfg.Window || nPlain < len(insts) || (r.cfg.Trace && len(metered) < sz.MinMetered); rep++ {
		// A rep stands for one run of the command, which starts with an
		// empty heap: without this the high-water mark is mostly the
		// garbage of the reps before.
		runtime.GC()
		var err error
		if r.cfg.Trace && rep%3 == 2 {
			var b batchRep
			if b, err = r.meteredRep(insts[len(metered)%len(insts)], streaming, rep); err == nil {
				metered = append(metered, b)
			}
		} else {
			in := insts[nPlain%len(insts)]
			var b batchRep
			if b, err = r.plainRep(in, streaming, rep); err == nil {
				if in.first == nil {
					first := b
					in.first = &first
				}
				b.m = nil
				in.plain = append(in.plain, b)
				nPlain++
			}
		}
		if err != nil {
			hw.Stop()
			return fmt.Errorf("rep %d: %w", rep, err)
		}
	}
	r.vals.set("peak_heap_mb", hw.Stop())

	// Correctness: every rep of an instance lands on the same bits.
	r.hash = insts[0].first.hash
	for _, in := range insts {
		first := in.first
		for i, b := range in.plain {
			r.check(b.q == first.q && b.hash == first.hash,
				"instance %d rep %d: Q %v hash %016x differ from its first rep's Q %v hash %016x", in.id, i, b.q, b.hash, first.q, first.hash)
			r.check(b.res.Stage1Sim == first.res.Stage1Sim && b.res.Stage2Sim == first.res.Stage2Sim &&
				b.res.CommStats.TotalBytesSent() == first.res.CommStats.TotalBytesSent(),
				"instance %d rep %d: simulated time or wire bytes differ from its first rep's", in.id, i)
		}
	}
	for i, b := range metered {
		// Solve re-derives Q from the installed state, so the last bits may
		// differ from the reduction RunLayout reports; the partition may not.
		first := insts[b.inst].first
		r.check(b.hash == first.hash && math.Abs(b.q-first.q) <= 1e-9,
			"traced rep %d: Q %v hash %016x differ from untraced Q %v hash %016x", i, b.q, b.hash, first.q, first.hash)
	}
	if streaming {
		// The streaming twin must find what the in-RAM path finds.
		first := insts[0].first
		ram, err := r.plainRep(insts[0], false, -100)
		if err != nil {
			return err
		}
		r.check(ram.q == first.q && ram.hash == first.hash,
			"oocore Q %v hash %016x differ from in-RAM Q %v hash %016x", first.q, first.hash, ram.q, ram.hash)
	}

	// End-to-end: the mean over instances of each instance's own value.
	var parts, pipes, sims, wires, qs, nmis []float64
	for _, in := range insts {
		var pa, pi []float64
		for _, b := range in.plain {
			pa = append(pa, (b.ingest + b.build).Seconds())
			pi = append(pi, b.pipe.Seconds())
		}
		parts = append(parts, Median(pa))
		pipes = append(pipes, Median(pi))
		res := in.first.res
		sims = append(sims, float64(res.Stage1Sim+res.Stage2Sim)/1e6)
		wires = append(wires, float64(res.CommStats.TotalBytesSent())/1e6)
		qs = append(qs, in.first.q)
		reference := in.serialM
		if lfr {
			reference = in.truth
		}
		if reference == nil {
			continue
		}
		nmi, err := quality.NMI(in.first.m, reference)
		if err != nil {
			return err
		}
		nmis = append(nmis, nmi)
		if lfr && !r.cfg.Smoke && in.serialM != nil {
			r.check(in.first.q >= minQOverSerialQ*in.serialQ,
				"instance %d: Q %.4f is below %.2f x serial Louvain's %.4f", in.id, in.first.q, minQOverSerialQ, in.serialQ)
		}
	}
	if lfr && !r.cfg.Smoke {
		r.check(Mean(nmis) >= minLFRNMI, "nmi %.4f against the planted partition is below %.2f", Mean(nmis), minLFRNMI)
	}
	r.vals.set("partition_s", Mean(parts))
	r.vals.set("pipeline_s", Mean(pipes))
	r.vals.samples["partition_s"], r.vals.samples["pipeline_s"] = nPlain, nPlain
	r.vals.set("sim_parallel_ms", Mean(sims))
	r.vals.set("wire_mb", Mean(wires))
	r.vals.set("modularity", Mean(qs))
	r.vals.set("nmi", Mean(nmis))

	r.layerMetrics(insts, metered, streaming)
	return nil
}

// serialBaseline decodes the instance's file and runs louvain.Run on it.
func (r *run) serialBaseline(in *instance) (time.Duration, error) {
	sh, closer, err := graph.OpenShardedFile(in.path)
	if err != nil {
		return 0, err
	}
	g, err := sh.ReadAll(0)
	if cerr := closer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sr := louvain.Run(g, louvain.Options{})
	t1 := time.Now()
	r.rec.Add("louvain.run", t0, t1, NoSpan, -1, in.id)
	in.serialQ, in.serialM = sr.Modularity, sr.Membership
	return t1.Sub(t0), nil
}

// layerMetrics turns the reps into the per-layer list: timings are medians
// over all plain reps, counts are means over the instances. The fields of
// core.Result and partition.Census cost nothing to read, so an untraced
// run has them too (they end up in Report.Extra); what needs the metered
// world is filled only by a traced run.
func (r *run) layerMetrics(insts []*instance, metered []batchRep, streaming bool) {
	var plain []batchRep
	var firsts []*core.Result
	for _, in := range insts {
		plain = append(plain, in.plain...)
		firsts = append(firsts, in.first.res)
	}
	col := func(reps []batchRep, f func(batchRep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, b := range reps {
			xs[i] = f(b)
		}
		return xs
	}
	sec := func(f func(batchRep) time.Duration) func(batchRep) float64 {
		return func(b batchRep) float64 { return f(b).Seconds() }
	}
	count := func(f func(*core.Result) float64) float64 {
		xs := make([]float64, len(firsts))
		for i, res := range firsts {
			xs[i] = f(res)
		}
		return Mean(xs)
	}
	if streaming {
		r.vals.median("partition.build_streaming_s", col(plain, sec(func(b batchRep) time.Duration { return b.build })))
	} else {
		ingest := col(plain, sec(func(b batchRep) time.Duration { return b.ingest }))
		r.vals.median("graph.open_readall_s", ingest)
		r.vals.median("partition.build_s", col(plain, sec(func(b batchRep) time.Duration { return b.build })))
		if m := Median(ingest); m > 0 {
			r.vals.set("graph.ingest_mb_per_s", r.vals.v["graph.file_mb"]/m)
		}
	}
	r.vals.set("partition.hubs", count(func(res *core.Result) float64 { return float64(res.HubCount) }))
	r.vals.set("partition.imbalance_w", count(func(res *core.Result) float64 { return res.Census.ImbalanceW() }))
	r.vals.set("partition.max_ghosts", count(func(res *core.Result) float64 { return float64(res.Census.MaxGhosts()) }))

	r.vals.median("core.stage1_s", col(plain, sec(func(b batchRep) time.Duration { return b.res.Stage1Time })))
	r.vals.median("core.stage2_s", col(plain, sec(func(b batchRep) time.Duration { return b.res.Stage2Time })))
	r.vals.set("core.stage1_iters", count(func(res *core.Result) float64 { return float64(res.Stage1Iters) }))
	r.vals.set("core.outer_levels", count(func(res *core.Result) float64 { return float64(res.OuterLevels) }))
	r.vals.set("core.sim_stage1_ms", count(func(res *core.Result) float64 { return float64(res.Stage1Sim) / 1e6 }))
	r.vals.set("core.sim_stage2_ms", count(func(res *core.Result) float64 { return float64(res.Stage2Sim) / 1e6 }))
	r.vals.set("core.balance_ratio", count(func(res *core.Result) float64 { return res.BalanceRatio }))
	phase := func(p trace.Phase) func(batchRep) time.Duration {
		return func(b batchRep) time.Duration { return b.res.Breakdown.Durations[p] }
	}
	r.vals.median("core.phase.find_best_s", col(plain, sec(phase(trace.FindBest))))
	r.vals.median("core.phase.broadcast_delegates_s", col(plain, sec(phase(trace.BroadcastDelegates))))
	r.vals.median("core.phase.swap_ghost_s", col(plain, sec(phase(trace.SwapGhost))))
	r.vals.median("core.phase.other_s", col(plain, sec(phase(trace.Other))))

	if len(metered) == 0 {
		r.vals.median("core.solve_s", col(plain, sec(func(b batchRep) time.Duration { return b.solve })))
		return
	}

	// The metered world, one rep at a time; medians over the metered reps.
	spans := r.rec.Spans()
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := Children(spans)
	var solveS, selfS, sendS, recvS, recvMaxS, coverage, overhead, msgs, mb, maxMB []float64
	for _, b := range metered {
		var slowest Span
		var send, recv, recvMax time.Duration
		var nMsgs, nBytes, maxBytes int64
		for rank, id := range b.world.spanIDs {
			if s := byID[id]; s.Duration() > slowest.Duration() {
				slowest = s
			}
			c := b.world.counts[rank]
			send += c.SendTime
			recv += c.RecvWt
			recvMax = max(recvMax, c.RecvWt)
			nMsgs += c.Msgs
			nBytes += c.Bytes
			maxBytes = max(maxBytes, c.Bytes)
			in := b.world.inner[rank]
			r.check(c.Msgs == in.MsgsSent && c.Bytes == in.BytesSent,
				"rank %d: meter saw %d msgs %d bytes, the endpoint %d msgs %d bytes", rank, c.Msgs, c.Bytes, in.MsgsSent, in.BytesSent)
		}
		solveS = append(solveS, slowest.Duration().Seconds())
		selfS = append(selfS, SelfTime(slowest, kids[slowest.ID]).Seconds())
		sendS = append(sendS, send.Seconds())
		recvS = append(recvS, recv.Seconds())
		recvMaxS = append(recvMaxS, recvMax.Seconds())
		coverage = append(coverage, (b.ingest+b.build+slowest.Duration()).Seconds()/b.pipe.Seconds())
		msgs = append(msgs, float64(nMsgs))
		mb = append(mb, float64(nBytes)/1e6)
		maxMB = append(maxMB, float64(maxBytes)/1e6)
		plainPipe := Median(col(insts[b.inst].plain, sec(func(b batchRep) time.Duration { return b.pipe })))
		overhead = append(overhead, b.pipe.Seconds()/plainPipe)
	}
	r.vals.median("core.solve_s", solveS)
	r.vals.median("core.compute_self_s", selfS)
	r.vals.median("comm.send_s", sendS)
	r.vals.median("comm.recv_wait_s", recvS)
	r.vals.median("comm.recv_wait_max_rank_s", recvMaxS)
	r.vals.median("trace.layer_coverage", coverage)
	r.vals.median("trace.overhead_ratio", overhead)
	r.vals.set("comm.msgs", Mean(msgs))
	r.vals.set("comm.bytes_mb", Mean(mb))
	r.vals.set("comm.max_rank_bytes_mb", Mean(maxMB))
}
