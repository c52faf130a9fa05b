package core

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/wire"
)

// mergeSeed is the seed-era merge implementation, kept verbatim as the
// equivalence oracle and benchmark baseline for the zero-map pipeline in
// merge.go: serial, map-of-maps accumulation, one sort.Ints per coarse
// vertex, no local combining before the wire. It issues the identical
// collective sequence (allgather + three all-to-alls), so tests run it
// back-to-back with merge() on every rank. It must not share scratch with
// the new path beyond sendScratch (which both reset before use); it writes
// s.dense exactly like merge() does.
func (s *stage) mergeSeed() (*partition.Subgraph, int, error) {
	// 1. Dense numbering of non-empty owned communities.
	var localComms []int
	for c := s.rnk; c < s.n; c += s.p {
		if s.ownSize[c] > 0 {
			localComms = append(localComms, c)
		}
	}
	cntBuf := wire.NewBuffer(8)
	cntBuf.PutUvarint(uint64(len(localComms)))
	counts, err := comm.Allgather(s.c, cntBuf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	base, total := 0, 0
	for r := 0; r < s.p; r++ {
		n := int(wire.NewReader(counts[r]).Uvarint())
		if r < s.rnk {
			base += n
		}
		total += n
	}
	denseOf := make(map[int]int32, len(localComms))
	for i, c := range localComms {
		denseOf[c] = int32(base + i)
	}

	// 2. Every rank learns the dense ID of each community it references.
	reqs := s.neededCommunities()
	out := s.sendScratch()
	for r := 0; r < s.p; r++ {
		b := s.sendBufs[r]
		b.PutInts(reqs[r])
		out[r] = b.Bytes()
	}
	in, err := s.alltoallv(out)
	if err != nil {
		return nil, 0, err
	}
	replies := s.sendScratch()
	for r := 0; r < s.p; r++ {
		rd := wire.NewReader(in[r])
		ids := rd.Ints()
		if err := rd.Err(); err != nil {
			return nil, 0, err
		}
		b := s.sendBufs[r]
		for _, c := range ids {
			d, ok := denseOf[c]
			if !ok {
				d = -1
			}
			b.PutVarint(int64(d))
		}
		replies[r] = b.Bytes()
	}
	s.dense = make([]int32, s.n)
	for i := range s.dense {
		s.dense[i] = -1
	}
	err = comm.AlltoallvFunc(s.c, replies, func(src int, payload []byte) error {
		rd := wire.NewReader(payload)
		for _, c := range reqs[src] {
			s.dense[c] = int32(rd.Varint())
		}
		return rd.Err()
	})
	if err != nil {
		return nil, 0, err
	}

	// 3. Translate and ship arcs to the owners of their new source vertex.
	arcBufs := s.sendScratch()
	ship := func(u int, adj []partition.Arc) {
		cu := int(s.dense[s.comm[u]])
		dst := cu % s.p
		for _, a := range adj {
			cv := int(s.dense[s.comm[a.To]])
			s.sendBufs[dst].PutVarint(int64(cu))
			s.sendBufs[dst].PutVarint(int64(cv))
			s.sendBufs[dst].PutF64(a.W)
		}
	}
	for i, u := range s.sg.Owned {
		ship(u, s.sg.AdjOwned[i])
	}
	for i, h := range s.sg.Hubs {
		ship(h, s.sg.AdjHub[i])
	}
	for r := 0; r < s.p; r++ {
		arcBufs[r] = s.sendBufs[r].Bytes()
	}
	arcIn, err := s.alltoallv(arcBufs)
	if err != nil {
		return nil, 0, err
	}

	// 4. Assemble this rank's portion of the merged graph, decoding the
	// frames in rank order for run-to-run bit identity.
	adj := make(map[int]map[int]float64)
	for r := 0; r < s.p; r++ {
		rd := wire.NewReader(arcIn[r])
		for rd.Remaining() > 0 {
			cu := int(rd.Varint())
			cv := int(rd.Varint())
			w := rd.F64()
			m := adj[cu]
			if m == nil {
				m = make(map[int]float64)
				adj[cu] = m
			}
			m[cv] += w
		}
		if err := rd.Err(); err != nil {
			return nil, 0, err
		}
	}
	ns := &partition.Subgraph{
		Rank: s.rnk, P: s.p,
		GlobalVertices: total,
		Subscribers:    make(map[int][]int),
		TotalWeight2:   s.m2,
	}
	ghostSet := make(map[int]struct{})
	for v := s.rnk; v < total; v += s.p {
		ns.Owned = append(ns.Owned, v)
		targets := adj[v]
		keys := make([]int, 0, len(targets))
		for t := range targets {
			keys = append(keys, t)
		}
		sort.Ints(keys)
		arcs := make([]partition.Arc, len(keys))
		var wdeg float64
		subSet := make(map[int]struct{})
		for i, t := range keys {
			arcs[i] = partition.Arc{To: t, W: targets[t]}
			wdeg += targets[t]
			to := t % s.p
			if to != s.rnk {
				ghostSet[t] = struct{}{}
				subSet[to] = struct{}{}
			}
		}
		ns.AdjOwned = append(ns.AdjOwned, arcs)
		ns.OwnedWDeg = append(ns.OwnedWDeg, wdeg)
		if len(subSet) > 0 {
			subs := make([]int, 0, len(subSet))
			for r := range subSet {
				subs = append(subs, r)
			}
			sort.Ints(subs)
			ns.Subscribers[v] = subs
		}
	}
	ns.Ghosts = make([]int, 0, len(ghostSet))
	for v := range ghostSet {
		ns.Ghosts = append(ns.Ghosts, v)
	}
	sort.Ints(ns.Ghosts)
	return ns, total, nil
}
