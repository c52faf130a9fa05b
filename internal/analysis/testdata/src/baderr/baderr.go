// Package baderr is a negative fixture for the commerr analyzer: comm and
// graph-IO errors dropped in every form the analyzer recognizes.
package baderr

import (
	"bytes"
	"io"

	"repro/internal/comm"
	"repro/internal/graph"
)

const tagWork = 2

// DropStatement drops Barrier's error on the floor.
func DropStatement(c comm.Comm) {
	comm.Barrier(c) // want commerr
}

// DropBlank assigns Send's error to the blank identifier.
func DropBlank(c comm.Comm, dst int) {
	_ = c.Send(dst, tagWork, nil) // want commerr
}

// DropRecvErr keeps the payload but blanks the error.
func DropRecvErr(c comm.Comm, src int) []byte {
	b, _ := c.Recv(src, tagWork) // want commerr
	return b
}

// DropInGo makes the error unobservable by construction.
func DropInGo(c comm.Comm) {
	go comm.Barrier(c) // want collectivesym commerr
}

// DropRecvTimeout blanks the error of a deadline-bounded receive; an
// elapsed deadline means a wedged or dead peer and must be propagated.
func DropRecvTimeout(c comm.Comm, src int) []byte {
	b, _ := comm.RecvTimeout(c, src, tagWork, 0) // want commerr
	return b
}

// DropRetry discards the verdict of a retry wrapper — exhausted retries
// mean the operation never happened.
func DropRetry(op func() error) {
	var pol comm.Backoff
	pol.Retry("op", op) // want commerr
}

// DropChaosWorld drops the joined per-rank errors of a chaos world.
func DropChaosWorld(fn func(comm.Comm) error) {
	comm.RunWorldChaos(2, comm.ChaosOptions{}, fn) // want commerr
}

// DropDrain discards a chaos endpoint's sticky delivery error.
func DropDrain(cc *comm.ChaosComm) {
	cc.Drain() // want commerr
}

// HandledOK is the control case.
func HandledOK(c comm.Comm) error {
	return comm.Barrier(c)
}

// HandledRobustnessOK is the control case for the robustness layer.
func HandledRobustnessOK(c comm.Comm, src int) error {
	pol := comm.Backoff{}
	if err := pol.Retry("recv", func() error {
		_, err := comm.RecvTimeout(c, src, tagWork, 0)
		return err
	}); err != nil {
		return err
	}
	return comm.RunWorldChaos(2, comm.ChaosOptions{}, func(comm.Comm) error { return nil })
}

// DropStreamingAlltoall drops the streaming exchange's error — a failed
// decode callback or a dead peer vanishes silently.
func DropStreamingAlltoall(c comm.Comm, out [][]byte) {
	comm.AlltoallvFunc(c, out, func(src int, payload []byte) error { return nil }) // want commerr
}

// DropFusedReduce blanks the fused per-iteration reduction's error.
func DropFusedReduce(c comm.Comm) comm.IterStats {
	st, _ := comm.AllreduceIterStats(c, comm.IterStats{}) // want commerr
	return st
}

// DropParallelIngest blanks the edge-list parser's error and carries a nil
// graph forward.
func DropParallelIngest(r io.Reader) *graph.Graph {
	g, _ := graph.ReadEdgeList(r, 4) // want commerr
	return g
}

// DropFlatRead blanks the flat-binary loader's error.
func DropFlatRead(data []byte) *graph.Graph {
	g, _ := graph.ReadBinary(bytes.NewReader(data)) // want commerr
	return g
}

// DropReadFile blanks the by-extension loader's error.
func DropReadFile(path string) *graph.Graph {
	g, _ := graph.ReadFile(path, 2) // want commerr
	return g
}

// HandledIngestOK is the control case for graph IO.
func HandledIngestOK(r io.Reader) (*graph.Graph, error) {
	return graph.ReadEdgeList(r, 4)
}

// DropV2Write drops the sharded writer's error: a truncated .sbin on disk
// fails every later run.
func DropV2Write(w io.Writer, g *graph.Graph) {
	graph.WriteBinaryShardedV2(w, g, 8) // want commerr
}

// DropWindowDecode blanks a shard window decode error — the streaming
// partitioner would silently build from a truncated window.
func DropWindowDecode(s *graph.Sharded) *graph.Window {
	w, _ := s.ReadWindow(0) // want commerr
	return w
}

// DropReadAll blanks the whole-file decode error of the windowed reader.
func DropReadAll(s *graph.Sharded) *graph.Graph {
	g, _ := s.ReadAll(2) // want commerr
	return g
}

// DropMmapOpen blanks the mmap open error and dereferences a nil view.
func DropMmapOpen(path string) *graph.MappedFile {
	m, _ := graph.OpenMmap(path) // want commerr
	return m
}

// DropShardedFileOpen drops the one-call open-and-map error.
func DropShardedFileOpen(path string) {
	graph.OpenShardedFile(path) // want commerr
}

// HandledOocoreOK is the control case for the out-of-core layer: ReadAll
// on a plain io.Reader is NOT graph IO and must not be flagged.
func HandledOocoreOK(r io.Reader, s *graph.Sharded) error {
	if _, err := io.ReadAll(r); err != nil {
		return err
	}
	_, err := s.ReadWindow(0)
	return err
}
