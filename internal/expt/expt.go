package expt

import (
	"fmt"
	"io"
)

// Experiment names accepted by Run and cmd/experiments.
var Names = []string{"table1", "fig5", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "comm", "gpu", "converge"}

// Run executes one named experiment and writes its tables to w.
func Run(name string, p Profile, w io.Writer) error {
	tables, err := Tables(name, p)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// Tables executes one named experiment and returns its tables.
func Tables(name string, p Profile) ([]*Table, error) {
	var tables []*Table
	var err error
	switch name {
	case "table1":
		var t *Table
		t, err = Table1(p)
		tables = []*Table{t}
	case "fig5":
		tables, err = Fig5(p)
	case "table2":
		var t *Table
		t, err = Table2(p)
		tables = []*Table{t}
	case "fig6":
		tables, err = Fig6(p)
	case "fig7":
		var t *Table
		t, err = Fig7(p)
		tables = []*Table{t}
	case "fig8":
		tables, err = Fig8(p)
	case "fig9":
		var t *Table
		t, err = Fig9(p)
		tables = []*Table{t}
	case "fig10":
		var t *Table
		t, err = Fig10(p)
		tables = []*Table{t}
	case "fig11":
		tables, err = Fig11(p)
	case "comm":
		var t *Table
		t, err = FigComm(p)
		tables = []*Table{t}
	case "gpu":
		var t *Table
		t, err = FigGPU(p)
		tables = []*Table{t}
	case "converge":
		tables, err = Converge(p)
	default:
		return nil, fmt.Errorf("expt: unknown experiment %q (known: %v)", name, Names)
	}
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", name, err)
	}
	return tables, nil
}

// RunAll executes every experiment in order.
func RunAll(p Profile, w io.Writer) error {
	for _, name := range Names {
		if err := Run(name, p, w); err != nil {
			return err
		}
	}
	return nil
}
