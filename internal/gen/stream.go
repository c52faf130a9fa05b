package gen

// Out-of-core R-MAT generation. StreamRMAT writes the graph RMAT(cfg)
// builds in RAM, bit for bit, in bounded memory: generated arcs are
// appended to temporary bucket files by source-vertex range, then each
// shard's buckets are loaded, sorted, and deduplicated one shard at a time
// and encoded straight into a .sbin through graph.ShardedWriter. Peak
// memory is ~16 bytes per arc of the largest shard (its raw records plus
// their sort keys), flat in total |E| for a fixed |E|/shards. The in-RAM
// RMAT holds an 8-byte key per drawn edge, then the edge list and the CSR:
// it allocates 83.8 MB for a scale-16 graph (1,048,576 draws, ≈910k
// edges), ≈92 bytes per edge.
//
// Bit-identity with RMAT(cfg) holds because both run the same size check,
// the same draw loop and the same dedup rule (size, draw, dedupKeys):
// every kept edge has unit weight, and sorting then compacting (src, tgt)
// keys yields exactly the arc set RMAT keeps, already in CSR order.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/graph"
)

// StreamedGraph describes the output of StreamRMAT.
type StreamedGraph struct {
	Path     string
	Vertices int
	Arcs     int64 // directed arcs after dedup (2× undirected edges)
	Shards   int
}

// maxStreamBuckets caps the number of temporary bucket files (and their
// write buffers) regardless of the requested shard count.
const maxStreamBuckets = 1024

// streamBucketRecord is one generated arc in a bucket file: u32 src, u32
// tgt, little-endian.
const streamBucketRecord = 8

// StreamRMAT generates RMAT(cfg) directly into path as a sharded binary
// graph with the given shard count, never holding more than one shard's
// arcs in memory. Shard boundaries are chosen to balance arcs (like the
// in-RAM sharded writer), from the observed bucket sizes rather than a CSR.
func StreamRMAT(cfg RMATConfig, path string, shards int) (StreamedGraph, error) {
	var out StreamedGraph
	n, e, err := cfg.size()
	if err != nil {
		return out, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}

	// Finer-grained buckets than shards let the arc-balancing regroup
	// around R-MAT's skew (low-numbered vertices carry most arcs).
	nb := 4 * shards
	if nb > maxStreamBuckets {
		nb = maxStreamBuckets
	}
	if nb > n {
		nb = n
	}
	bucketDir, err := os.MkdirTemp(filepath.Dir(path), ".rmat-buckets-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(bucketDir)

	bucketSizes, err := generateBuckets(cfg, n, e, nb, bucketDir)
	if err != nil {
		return out, err
	}

	// Group buckets into shards balancing bytes (∝ arcs): shard s ends at
	// the first bucket where the cumulative size reaches (s+1)/shards of
	// the total — the same rule the in-RAM writer applies to arc offsets.
	cum := make([]int64, nb+1)
	for b := 0; b < nb; b++ {
		cum[b+1] = cum[b] + bucketSizes[b]
	}
	bhi := make([]int, shards)
	for s := 0; s < shards-1; s++ {
		target := int64(s+1) * cum[nb] / int64(shards)
		bhi[s] = sort.Search(nb, func(b int) bool { return cum[b+1] >= target })
	}
	bhi[shards-1] = nb

	f, err := os.Create(path)
	if err != nil {
		return out, err
	}
	sw, err := graph.NewShardedWriter(f, n, shards, []float64{1})
	if err != nil {
		f.Close()
		return out, err
	}
	blo := 0
	for s := 0; s < shards; s++ {
		if err := encodeShardFromBuckets(sw, n, nb, blo, bhi[s], bucketDir); err != nil {
			f.Close()
			return out, fmt.Errorf("gen: stream shard %d: %w", s, err)
		}
		blo = bhi[s]
	}
	if err := sw.Finish(); err != nil {
		f.Close()
		return out, err
	}
	if err := f.Close(); err != nil {
		return out, err
	}
	return StreamedGraph{Path: path, Vertices: n, Arcs: sw.Arcs(), Shards: shards}, nil
}

// bucketOf maps a vertex to its bucket: bucket b covers [b·n/nb, (b+1)·n/nb).
func bucketOf(u, n, nb int) int {
	b := int(int64(u) * int64(nb) / int64(n))
	for b < nb-1 && u >= (b+1)*n/nb {
		b++
	}
	for b > 0 && u < b*n/nb {
		b--
	}
	return b
}

// generateBuckets runs the R-MAT draw loop and appends both arcs of each
// edge it emits to their source vertices' bucket files. Duplicates are
// kept: dedup happens at encode time, per shard. Returns each bucket's
// byte size.
func generateBuckets(cfg RMATConfig, n int, e int64, nb int, dir string) ([]int64, error) {
	files := make([]*os.File, nb)
	ws := make([]*bufio.Writer, nb)
	for b := range files {
		f, err := os.Create(bucketPath(dir, b))
		if err != nil {
			for _, g := range files[:b] {
				g.Close()
			}
			return nil, err
		}
		files[b] = f
		ws[b] = bufio.NewWriterSize(f, 1<<16)
	}
	closeAll := func() error {
		var first error
		for b := range files {
			if err := ws[b].Flush(); err != nil && first == nil {
				first = err
			}
			if err := files[b].Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	sizes := make([]int64, nb)
	var rec [streamBucketRecord]byte
	put := func(src, tgt int) error {
		b := bucketOf(src, n, nb)
		binary.LittleEndian.PutUint32(rec[0:], uint32(src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(tgt))
		if _, err := ws[b].Write(rec[:]); err != nil {
			return err
		}
		sizes[b] += streamBucketRecord
		return nil
	}

	err := cfg.draw(e, func(u, v int) error {
		if err := put(u, v); err != nil {
			return err
		}
		return put(v, u)
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	return sizes, nil
}

func bucketPath(dir string, b int) string {
	return filepath.Join(dir, fmt.Sprintf("b%04d", b))
}

// encodeShardFromBuckets loads buckets [blo, bhi), sorts and dedups their
// arcs, and appends the resulting CSR window as the writer's next shard.
// The consumed bucket files are deleted so disk usage stays ~2× the output
// rather than accumulating.
func encodeShardFromBuckets(sw *graph.ShardedWriter, n, nb, blo, bhi int, dir string) error {
	vlo := 0
	if blo < nb {
		vlo = blo * n / nb
	} else {
		vlo = n
	}
	vhi := n
	if bhi < nb {
		vhi = bhi * n / nb
	}

	var total int64
	for b := blo; b < bhi; b++ {
		st, err := os.Stat(bucketPath(dir, b))
		if err != nil {
			return err
		}
		total += st.Size()
	}
	if total%streamBucketRecord != 0 {
		return fmt.Errorf("bucket bytes %d not a record multiple", total)
	}
	raw := make([]byte, total)
	off := int64(0)
	for b := blo; b < bhi; b++ {
		p := bucketPath(dir, b)
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		if _, err := io.ReadFull(f, raw[off:off+st.Size()]); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Remove(p); err != nil {
			return err
		}
		off += st.Size()
	}

	// Dedup (src, tgt) keys and lay them out as the CSR window. Buckets
	// hold disjoint source ranges but are concatenated in range order, so
	// one sort of the whole shard is correct.
	keys := make([]uint64, total/streamBucketRecord)
	for i := range keys {
		src := binary.LittleEndian.Uint32(raw[i*streamBucketRecord:])
		tgt := binary.LittleEndian.Uint32(raw[i*streamBucketRecord+4:])
		if int(src) < vlo || int(src) >= vhi {
			return fmt.Errorf("record source %d outside shard [%d,%d)", src, vlo, vhi)
		}
		keys[i] = uint64(src)<<32 | uint64(tgt)
	}
	raw = nil
	keys = dedupKeys(keys)

	offsets := make([]int64, vhi-vlo+1)
	targets := make([]int32, len(keys))
	for i, k := range keys {
		targets[i] = int32(k & 0xffffffff)
		offsets[int(k>>32)-vlo+1]++
	}
	for i := 1; i <= vhi-vlo; i++ {
		offsets[i] += offsets[i-1]
	}
	return sw.AppendShard(vhi, offsets, targets, nil)
}
