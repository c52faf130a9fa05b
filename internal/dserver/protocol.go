package dserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// Line protocol for the resident service. One request per line, one reply
// line per request; blank lines and lines starting with '#' are skipped
// (fixture scripts use them for comments). Floats that must survive a
// round-trip bit-exactly (modularity, drift) are printed as hex floats,
// the same convention as the core golden files.
//
//	community <v>          -> community <v> <label>
//	neighborhood <v>       -> neighborhood <v> <to>:<w> ...
//	modularity             -> modularity <hexfloat>
//	update <op>[;<op>...]  -> update ok ops=<n> mode=<incremental|full> moved=<m> touched=<t> needfull=<bool> q=<hexfloat>
//	stats                  -> stats batches=<n> incremental=<n> full=<n> ops=<n> edges=<n> q=<hexfloat> driftq=<hexfloat> drifttouch=<hexfloat>
//	resolve                -> resolve ok q=<hexfloat>
//
// where <op> is +u,v,w (insert weight w > 0) or -u,v (delete the edge).
// Any failure answers "error: <message>". A refused request leaves the world
// unchanged; a rank failure mid-mutation leaves it failed, answering every
// later request with that error.

// HandleLine executes one protocol line and returns the reply line (without
// a trailing newline). Blank and comment lines return "".
func (w *World) HandleLine(line string) string {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return ""
	}
	verb, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch verb {
	case "community":
		v, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Sprintf("error: community: bad vertex %q", rest)
		}
		c, err := w.CommunityOf(v)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("community %d %d", v, c)
	case "neighborhood":
		v, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Sprintf("error: neighborhood: bad vertex %q", rest)
		}
		arcs, err := w.Neighborhood(v)
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		fmt.Fprintf(&b, "neighborhood %d", v)
		for _, a := range arcs {
			fmt.Fprintf(&b, " %d:%s", a.To, strconv.FormatFloat(partition.Dequantise(a.W), 'g', -1, 64))
		}
		return b.String()
	case "modularity":
		q, err := w.Modularity()
		if err != nil {
			return "error: " + err.Error()
		}
		return "modularity " + hexFloat(q)
	case "update":
		ops, err := ParseOps(rest)
		if err != nil {
			return "error: " + err.Error()
		}
		out, err := w.Update(ops)
		if err != nil {
			return "error: " + err.Error()
		}
		mode := "incremental"
		if out.Full {
			mode = "full"
		}
		return fmt.Sprintf("update ok ops=%d mode=%s moved=%d touched=%d needfull=%v q=%s",
			len(ops), mode, out.Moved, out.Touched, out.NeedFull, hexFloat(out.Q))
	case "resolve":
		q, err := w.Resolve()
		if err != nil {
			return "error: " + err.Error()
		}
		return "resolve ok q=" + hexFloat(q)
	case "stats":
		s := w.Stats()
		return fmt.Sprintf("stats batches=%d incremental=%d full=%d ops=%d edges=%d q=%s driftq=%s drifttouch=%s",
			s.Batches, s.Incremental, s.Full, s.Ops, s.Edges,
			hexFloat(s.Modularity), hexFloat(s.DriftQ), hexFloat(s.DriftTouch))
	default:
		return fmt.Sprintf("error: unknown command %q", verb)
	}
}

// ParseOps parses an update payload: semicolon-separated ops, each
// +u,v,w (insert) or -u,v (delete).
func ParseOps(s string) ([]Op, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("update: empty op list")
	}
	var ops []Op
	for _, f := range strings.Split(s, ";") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if len(f) < 2 || (f[0] != '+' && f[0] != '-') {
			return nil, fmt.Errorf("update: op %q, want +u,v,w or -u,v", f)
		}
		op := Op{Del: f[0] == '-'}
		parts := strings.Split(f[1:], ",")
		switch {
		case op.Del && len(parts) == 2:
		case !op.Del && len(parts) == 3:
			wt, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("update: op %q: bad weight: %v", f, err)
			}
			op.W = wt
		default:
			return nil, fmt.Errorf("update: op %q, want +u,v,w or -u,v", f)
		}
		u, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("update: op %q: bad vertex: %v", f, err)
		}
		v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("update: op %q: bad vertex: %v", f, err)
		}
		op.U, op.V = u, v
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("update: empty op list")
	}
	return ops, nil
}

// errUnterminated refuses a last line with no newline: the client's input
// ended, or its connection dropped, mid-request, so the line may be cut
// short ("+0,7,1" of a meant "+0,7,12").
var errUnterminated = errors.New("request not terminated by a newline: not executed")

// scanRequests splits Serve's input at '\n' like bufio.ScanLines, but ends the
// scan with errUnterminated at a non-blank last line that has no newline.
func scanRequests(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(bytes.TrimSpace(data)) > 0 {
		return 0, nil, errUnterminated
	}
	return 0, nil, nil
}

// Serve reads protocol lines from r and writes one reply line per request
// to out until EOF. A request is a line ending in '\n': an unterminated last
// line is answered with an error and not executed. It is the
// transport-agnostic request loop behind both cmd/dserver's stdio/TCP modes
// and the golden fixture replays.
func (w *World) Serve(r io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(scanRequests)
	reply := func(rep string) error { // one Write per reply line
		if rep == "" {
			return nil
		}
		_, err := io.WriteString(out, rep+"\n")
		return err
	}
	for sc.Scan() {
		if err := reply(w.HandleLine(sc.Text())); err != nil {
			return err
		}
	}
	err := sc.Err()
	if errors.Is(err, errUnterminated) {
		err = reply("error: dserver: " + err.Error())
	}
	return err
}

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
