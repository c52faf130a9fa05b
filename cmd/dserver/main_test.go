package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dserver"
	"repro/internal/graph"
)

// serve runs the command body on the given stdin and returns exit code,
// stdout and stderr.
func serve(stdin string, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins usage errors (2, before any graph is read) apart from
// failed loads (1), with the message the user sees. The usage rows name a
// graph file that does not exist, so a usage error that waited for the
// load would exit 1.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.txt")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\n"},
		{"bad-heuristic", []string{"-graph", missing, "-heuristic", "greedy"}, 2, "dserver: unknown heuristic \"greedy\"\n"},
		{"bad-partitioning", []string{"-graph", missing, "-partitioning", "2d"}, 2, "dserver: unknown partitioning \"2d\"\n"},
		{"no-graph", nil, 2, "dserver: pass one of -graph FILE and -gen SPEC\n"},
		{"zero-ranks", []string{"-graph", missing, "-p", "0"}, 2, "dserver: -p 0, want >= 1\n"},
		{"missing-graph", []string{"-graph", missing}, 1, "dserver: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := serve("", tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr starting %q", code, stderr, tc.code, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestStdioSession pins one session over stdin/stdout on four 5-cliques at
// P = 2: a community query, the modularity, and an unknown verb, one reply
// line each.
func TestStdioSession(t *testing.T) {
	code, stdout, stderr := serve("community 0\nmodularity\nbogus\n",
		"-gen", "caveman:cliques=4,size=5", "-p", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	const want = "community 0 0\n" +
		"modularity 0x1.51745d1745d17p-01\n" +
		"error: unknown command \"bogus\"\n"
	if stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if !strings.HasPrefix(stderr, "dserver: 20 vertices, ") {
		t.Errorf("stderr %q does not report the solved graph", stderr)
	}
}

// TestStdioUnterminatedLine: stdin that ends mid-request gets an error reply
// for that line, which is not executed, and the command still exits 0.
func TestStdioUnterminatedLine(t *testing.T) {
	code, stdout, stderr := serve("update +0,7,1\nstats\nupdate +0,8,1",
		"-gen", "caveman:cliques=4,size=5", "-p", "2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	lines := strings.Split(stdout, "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "update ok ops=1 ") ||
		!strings.HasPrefix(lines[1], "stats batches=1 ") ||
		lines[2] != "error: dserver: request not terminated by a newline: not executed" || lines[3] != "" {
		t.Errorf("stdout:\n%s", stdout)
	}
}

// TestListenClientNeverReads: a loopback client sends requests and never
// reads the replies. Once a reply has waited writeTimeout the server must
// close the connection, and its goroutine must exit.
func TestListenClientNeverReads(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 200 * time.Millisecond
	// A star: every "neighborhood 0" reply is ≈16 kB.
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: i + 1, W: 1}
	}
	g, err := graph.FromEdges(len(edges)+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dserver.New(g, dserver.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Small socket buffers, so a few replies fill them.
	if err := client.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveConn(w, conn, io.Discard)
	}()
	// About 30 MB of replies: far more than any socket buffer holds. The
	// write ends once the server has read it or closed the connection.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		client.Write(bytes.Repeat([]byte("neighborhood 0\n"), 2000))
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the connection goroutine is still blocked on a client that never reads")
	}
	<-wrote
	// The server closed its end: past the replies that made it, the client
	// reads an end of stream, not its own deadline.
	if err := client.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := io.Copy(io.Discard, client); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the server never closed the connection: %v", err)
	}
}
