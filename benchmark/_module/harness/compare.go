package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// Machine is the line that heads a file of runs: numbers from two
// machines, or two GOMAXPROCS, are not compared.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// ThisMachine describes the process as it runs now.
func ThisMachine() Machine {
	return Machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// record is one line of a runs file: the machine line or a report.
type record struct {
	Machine *Machine `json:"machine,omitempty"`
	*Report
}

// AppendRun adds rep to the runs file at path, writing the machine line
// first when the file is new.
func AppendRun(path string, rep *Report) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if os.IsNotExist(statErr) {
		m := ThisMachine()
		if err := enc.Encode(record{Machine: &m}); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(record{Report: rep}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunSet is a runs file read back.
type RunSet struct {
	Machine Machine
	Reports []*Report
}

// ReadRuns reads a runs file.
func ReadRuns(path string) (*RunSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &RunSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Machine != nil {
			set.Machine = *rec.Machine
		}
		if rec.Report != nil {
			set.Reports = append(set.Reports, rec.Report)
		}
	}
	return set, sc.Err()
}

// values returns the untraced runs' values of one metric on one workload,
// keyed by seed.
func (s *RunSet) values(workload, metric string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, rep := range s.Reports {
		if rep.Workload != workload || rep.Trace {
			continue
		}
		if m, ok := rep.Result.Metrics[metric]; ok {
			out[rep.Seed] = m.Value
		}
	}
	return out
}

// Verdicts of one comparison row.
const (
	Unchanged  = "unchanged"
	Improved   = "improved"
	Regression = "REGRESSION"
	Unresolved = "unresolved"
)

// Row compares one end-to-end metric on one workload between two sets.
type Row struct {
	Workload, Metric, Unit string
	Bound                  float64
	NA, NB                 int
	MedA, Q1A, Q3A         float64
	MedB, Q1B, Q3B         float64
	Worse                  float64 // B against A as a share of A's median; positive is worse
	Verdict                string
}

// Compare makes one row per workload and end-to-end metric. B regresses
// when its median is worse than A's by more than the metric's bound. Where
// the distance between either side's own quartiles is wider than the
// bound, the runs cannot tell, and the row says unresolved, not unchanged.
func Compare(a, b *RunSet) []Row {
	var rows []Row
	for _, wl := range Workloads {
		for _, d := range EndToEnd {
			va, vb := mapValues(a.values(wl, d.Name)), mapValues(b.values(wl, d.Name))
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := Row{Workload: wl, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, NA: len(va), NB: len(vb)}
			row.MedA, row.MedB = Median(va), Median(vb)
			row.Q1A, row.Q3A = Quartiles(va)
			row.Q1B, row.Q3B = Quartiles(vb)
			if row.MedA != 0 {
				row.Worse = (row.MedB - row.MedA) / row.MedA
				if d.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			switch {
			case Spread(va) > d.Bound || Spread(vb) > d.Bound:
				row.Verdict = Unresolved
			case row.Worse > d.Bound:
				row.Verdict = Regression
			case row.Worse < -d.Bound:
				row.Verdict = Improved
			default:
				row.Verdict = Unchanged
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func mapValues(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	return out
}

// Exact lists the metrics that are counts or results of a deterministic
// computation: for one seed they must not differ between two sets of runs
// of one commit by a single bit.
var Exact = []string{"sim_parallel_ms", "wire_mb", "modularity", "nmi"}

// ExactDiffs counts, per workload and exact metric, the seeds both sets
// ran on which the values differ.
func ExactDiffs(a, b *RunSet) (shared, differing int, detail []string) {
	for _, wl := range Workloads {
		for _, name := range Exact {
			va, vb := a.values(wl, name), b.values(wl, name)
			for seed, x := range va {
				y, ok := vb[seed]
				if !ok {
					continue
				}
				shared++
				if x != y {
					differing++
					detail = append(detail, fmt.Sprintf("%s %s seed %d: %v vs %v", wl, name, seed, x, y))
				}
			}
		}
	}
	sort.Strings(detail)
	return shared, differing, detail
}

// PrintComparison writes the table and returns how many rows regressed and
// how many stayed unresolved.
func PrintComparison(w io.Writer, a, b *RunSet) (regressed, unresolved int) {
	fmt.Fprintf(w, "A: %+v\nB: %+v\n", a.Machine, b.Machine)
	if a.Machine != b.Machine {
		fmt.Fprintln(w, "warning: the two sets come from different machines or settings")
	}
	fmt.Fprintf(w, "%-12s %-16s %-4s %3s %12s %25s %3s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "nA", "median A", "quartiles A", "nB", "median B", "quartiles B", "worse", "bound", "verdict")
	for _, r := range Compare(a, b) {
		fmt.Fprintf(w, "%-12s %-16s %-4s %3d %12.6g %25s %3d %12.6g %25s %+7.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit,
			r.NA, r.MedA, fmt.Sprintf("[%.6g, %.6g]", r.Q1A, r.Q3A),
			r.NB, r.MedB, fmt.Sprintf("[%.6g, %.6g]", r.Q1B, r.Q3B),
			100*r.Worse, 100*r.Bound, r.Verdict)
		switch r.Verdict {
		case Regression:
			regressed++
		case Unresolved:
			unresolved++
		}
	}
	shared, differing, detail := ExactDiffs(a, b)
	fmt.Fprintf(w, "exact metrics %v: %d seed-matched values, %d differ\n", Exact, shared, differing)
	for _, d := range detail {
		fmt.Fprintln(w, "  "+d)
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	return regressed, unresolved
}
