package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadFile reads a whole graph from path, choosing the decoder by
// extension: .sbin (sharded binary), .metis, and a text edge list for
// anything else. The parallel decoders run on up to GOMAXPROCS goroutines;
// the graph is identical at every GOMAXPROCS.
func ReadFile(path string) (*Graph, error) {
	if strings.HasSuffix(path, ".sbin") {
		s, closer, err := OpenShardedFile(path)
		if err != nil {
			return nil, err
		}
		defer closer.Close()
		return s.ReadAll(0)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".metis") {
		return ReadMETIS(f)
	}
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as a text edge list: one "u v w" line per
// undirected edge (u <= v), preceded by a "# vertices N" header line.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices()); err != nil {
		return err
	}
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		for a := lo; a < hi; a++ {
			v := g.ArcTarget(a)
			if u <= v {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, g.ArcWeight(a)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// maxLineLen bounds one line of an edge list; a longer one fails with
// bufio.ErrTooLong.
const maxLineLen = 1 << 20

// Line kinds produced by parseEdgeLine.
const (
	lineBlank = iota // blank line or comment
	lineDecl         // "# vertices N" declaration
	lineEdge         // an edge
)

// parseEdgeLine parses one line of the edge-list grammar.
func parseEdgeLine(line []byte, lineNo, maxV int) (e Edge, kind int, declared int, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Edge{}, lineBlank, 0, nil
	}
	if line[0] == '#' {
		var d int
		if _, serr := fmt.Sscanf(string(line), "# vertices %d", &d); serr == nil {
			if d < 0 {
				return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: declared vertex count %d is negative", lineNo, d)
			}
			if d > maxV {
				return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: declared vertex count %d exceeds limit %d", lineNo, d, maxV)
			}
			return Edge{}, lineDecl, d, nil
		}
		return Edge{}, lineBlank, 0, nil
	}
	f, nf := splitFields(line)
	if nf < 2 {
		return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: need at least 2 fields, got %q", lineNo, line)
	}
	u, aerr := atoiField(f[0])
	if aerr != nil {
		return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, f[0], aerr)
	}
	v, aerr := atoiField(f[1])
	if aerr != nil {
		return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, f[1], aerr)
	}
	if u < 0 || v < 0 || u >= maxV || v >= maxV {
		return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: endpoint (%d,%d) outside [0,%d)", lineNo, u, v, maxV)
	}
	w := 1.0
	if nf >= 3 {
		w, aerr = parseWeight(f[2])
		if aerr != nil {
			return Edge{}, lineBlank, 0, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, f[2], aerr)
		}
	}
	return Edge{U: u, V: v, W: w}, lineEdge, 0, nil
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// splitFields extracts the first three whitespace-separated fields without
// allocating. Lines containing non-ASCII bytes take the general path so
// field boundaries match strings.Fields exactly (Unicode spaces split too).
func splitFields(line []byte) (f [3][]byte, nf int) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c >= utf8.RuneSelf {
			return splitFieldsSlow(line)
		}
		if asciiSpace(c) {
			i++
			continue
		}
		j := i
		for j < len(line) {
			c = line[j]
			if c >= utf8.RuneSelf {
				return splitFieldsSlow(line)
			}
			if asciiSpace(c) {
				break
			}
			j++
		}
		if nf < 3 {
			f[nf] = line[i:j]
		}
		nf++
		i = j
	}
	if nf > 3 {
		nf = 3
	}
	return f, nf
}

func splitFieldsSlow(line []byte) (f [3][]byte, nf int) {
	all := bytes.Fields(line)
	nf = len(all)
	if nf > 3 {
		nf = 3
	}
	copy(f[:], all[:nf])
	return f, nf
}

// atoiField is strconv.Atoi with an allocation-free fast path for plain
// decimal digits, the overwhelmingly common case in edge lists. The fast
// path only accepts inputs whose result provably equals strconv.Atoi's.
func atoiField(b []byte) (int, error) {
	if n := len(b); n > 0 && n <= 18 { // ≤ 18 digits cannot overflow int64
		v := 0
		ok := true
		for _, c := range b {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if ok {
			return v, nil
		}
	}
	return strconv.Atoi(string(b))
}

// parseWeight is strconv.ParseFloat with a fast path for plain small
// integers, which %g emits for unweighted graphs. ≤ 15 digits stay below
// 2^53, so the integer conversion is exact and equals ParseFloat's result.
func parseWeight(b []byte) (float64, error) {
	if n := len(b); n > 0 && n <= 15 {
		v := 0
		ok := true
		for _, c := range b {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if ok {
			return float64(v), nil
		}
	}
	return strconv.ParseFloat(string(b), 64)
}

// inputSize reports how many bytes remain in r when r can seek (files,
// bytes.Readers); ok=false for plain streams.
func inputSize(r io.Reader) (int64, bool) {
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, false
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, false
	}
	return end - cur, true
}
