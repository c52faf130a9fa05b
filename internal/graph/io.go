package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/wire"
)

// ReadFile reads a whole graph from path, choosing the decoder by
// extension: .sbin (sharded binary, either version), .bin (flat binary),
// .metis, and a text edge list for anything else. workers bounds the
// parallel decoders (0 = automatic); the graph is identical at every count.
func ReadFile(path string, workers int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".sbin"):
		return ReadBinarySharded(f, workers)
	case strings.HasSuffix(path, ".bin"):
		return ReadBinary(f)
	case strings.HasSuffix(path, ".metis"):
		return ReadMETIS(f)
	default:
		return ReadEdgeListParallel(f, workers)
	}
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

// ReadEdgeList parses the text format written by WriteEdgeList. It also
// accepts headerless SNAP-style lists ("u v" or "u v w" per line, '#'
// comments); in that case the vertex count is 1 + the maximum endpoint.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, math.MaxInt32)
}

// readEdgeList bounds the vertex-ID space at maxV. Arc targets are stored
// as int32, so IDs beyond that are corrupt by definition — and because a
// headerless list sizes the graph as 1 + max endpoint, a single hostile
// line like "99999999999999 0" would otherwise demand a maxID-sized
// allocation before any validation. The fuzz harness lowers the bound
// further to keep per-input allocations small.
func readEdgeList(r io.Reader, maxV int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLineLen), maxLineLen)
	n := -1
	var edges []Edge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		e, kind, declared, err := parseEdgeLine(sc.Bytes(), lineNo, maxV)
		if err != nil {
			return nil, err
		}
		switch kind {
		case lineDecl:
			n = declared
		case lineEdge:
			if e.U > maxID {
				maxID = e.U
			}
			if e.V > maxID {
				maxID = e.V
			}
			edges = append(edges, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxID + 1
	}
	return FromEdges(n, edges)
}

// maxLineLen is the scanner buffer of the serial reader; the chunked reader
// enforces the same bound so both paths reject identical inputs.
const maxLineLen = 1 << 20

// Line kinds produced by parseEdgeLine.
const (
	lineBlank = iota // blank line or comment
	lineDecl         // "# vertices N" declaration
	lineEdge         // an edge
)

// parseEdgeLine parses one line of the edge-list grammar. It is the single
// grammar shared by the serial and chunked parallel readers, so the two
// paths accept and reject byte-identical inputs with identical error text.
func parseEdgeLine(line []byte, lineNo, maxV int) (e Edge, kind int, declared int, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Edge{}, lineBlank, 0, nil
	}
	if line[0] == '#' {
		var d int
		if _, serr := fmt.Sscanf(string(line), "# vertices %d", &d); serr == nil {
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

const binaryMagic = uint32(0x477250A1) // "GrP" + version 1

// WriteBinary writes the graph in a compact binary format (wire encoding).
func WriteBinary(w io.Writer, g *Graph) error {
	buf := wire.NewBuffer(int(g.NumArcs())*3 + 64)
	buf.PutU32(binaryMagic)
	buf.PutUvarint(uint64(g.NumVertices()))
	buf.PutUvarint(uint64(g.NumArcs()))
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		buf.PutUvarint(uint64(hi - lo))
		prev := int64(0)
		for a := lo; a < hi; a++ {
			t := int64(g.ArcTarget(a))
			buf.PutVarint(t - prev) // delta-coded sorted targets
			prev = t
			buf.PutF64(g.ArcWeight(a))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// maxHeaderLen bounds the encoded flat-format header: 4 magic bytes plus
// two uvarints of at most 10 bytes each.
const maxHeaderLen = 24

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

// ReadBinary parses the format written by WriteBinary. When the input can
// report its size (a file or bytes.Reader), the header is validated against
// that size before the payload is buffered, so a hostile header on a large
// input fails after one Peek instead of after a full read. The CSR arrays
// are decoded directly from the read buffer — no per-vertex intermediate
// lists and no second flattening copy. The writer always emits sorted,
// combined adjacency, so the decoder checks targets are strictly increasing
// and in range, then skips the sort/combine pass entirely.
func ReadBinary(r io.Reader) (*Graph, error) {
	size, sized := inputSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	if sized {
		hdr, _ := br.Peek(maxHeaderLen) // short reads fall through to the full decode
		hr := wire.NewReader(hdr)
		m := hr.U32()
		n := int(hr.Uvarint())
		arcs := int64(hr.Uvarint())
		if hr.Err() == nil {
			if m != binaryMagic {
				return nil, fmt.Errorf("graph: bad magic %#x (want %#x)", m, binaryMagic)
			}
			payload := size - int64(len(hdr)-hr.Remaining())
			if n < 0 || arcs < 0 || int64(n) > payload || arcs > payload/9 {
				return nil, fmt.Errorf("graph: corrupt header (n=%d arcs=%d for %d payload bytes)", n, arcs, payload)
			}
		}
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	return decodeBinary(data)
}

// decodeBinary parses a fully buffered flat binary graph.
func decodeBinary(data []byte) (*Graph, error) {
	rd := wire.NewReader(data)
	if m := rd.U32(); m != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x (want %#x)", m, binaryMagic)
	}
	n := int(rd.Uvarint())
	arcs := int64(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if n < 0 || arcs < 0 {
		return nil, fmt.Errorf("graph: corrupt header (n=%d arcs=%d)", n, arcs)
	}
	// Every vertex contributes at least a one-byte degree and every arc at
	// least 9 encoded bytes (1 varint + 8 weight), so a header demanding
	// more than the input can possibly hold is corrupt. Checking before
	// allocating keeps hostile headers from requesting huge blocks.
	if int64(n) > int64(rd.Remaining()) || arcs > int64(rd.Remaining())/9 {
		return nil, fmt.Errorf("graph: corrupt header (n=%d arcs=%d for %d payload bytes)", n, arcs, rd.Remaining())
	}
	offsets := make([]int64, n+1)
	targets := make([]int32, arcs)
	weights := make([]float64, arcs)
	var seen int64
	for u := 0; u < n; u++ {
		d := int(rd.Uvarint())
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if d < 0 || int64(d) > int64(rd.Remaining())/9 {
			return nil, fmt.Errorf("graph: vertex %d: corrupt degree %d for %d remaining bytes", u, d, rd.Remaining())
		}
		if seen+int64(d) > arcs {
			return nil, fmt.Errorf("graph: arc count mismatch: header %d, body %d", arcs, seen+int64(d))
		}
		prev := int64(0)
		for i := 0; i < d; i++ {
			t := prev + rd.Varint()
			if t < 0 || t >= int64(n) || (i > 0 && t <= prev) {
				if err := rd.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("graph: vertex %d: target %d out of order or range [0,%d)", u, t, n)
			}
			prev = t
			targets[seen] = int32(t)
			weights[seen] = rd.F64()
			seen++
		}
		offsets[u+1] = seen
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if seen != arcs {
		return nil, fmt.Errorf("graph: arc count mismatch: header %d, body %d", arcs, seen)
	}
	return fromSortedCSR(offsets, targets, weights), nil
}
