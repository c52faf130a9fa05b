// Package badprint is a negative fixture for the noprint analyzer:
// process-global printing from a package under internal/.
package badprint

import (
	"fmt"
	"log" // want noprint

	"repro/internal/par"
)

// Chatter writes to stdout and stderr from library code.
func Chatter(n int) {
	fmt.Println("processed", n) // want noprint
	log.Printf("n=%d", n)
}

// WriterOK is the control case: an explicit writer is the caller's choice.
func WriterOK(w interface{ Write([]byte) (int, error) }, n int) {
	fmt.Fprintf(w, "processed %d\n", n)
}

// ChattyIngest prints per-chunk progress from a par.For parse kernel, the
// shape of the parallel ingest pipeline: the lines interleave across
// goroutines on top of being library noise.
func ChattyIngest(data []byte) {
	par.For(4, func(chunk int) {
		fmt.Printf("chunk %d: %d bytes\n", chunk, len(data)/4) // want noprint
	})
}

// ChattyStream mimics the out-of-core layer (PR 9) narrating shard
// progress: a streamed generate or two-pass partition visits thousands of
// windows, so a per-shard print is thousands of lines of library noise —
// the cmds own the progress report, the library returns counters.
func ChattyStream(shards int) {
	for i := 0; i < shards; i++ {
		fmt.Println("shard", i, "done") // want noprint
	}
}
