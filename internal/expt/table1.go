package expt

// table1 reproduces the paper's Table I (dataset census): for every
// registered dataset it reports the paper's sizes next to the stand-in's
// actual vertex and edge counts.
func (s *Suite) table1() ([]*Table, error) {
	t := &Table{
		Title:  "Table I — Datasets (paper sizes vs stand-in sizes)",
		Header: []string{"Name", "Description", "paper #V", "paper #E", "standin #V", "standin #E", "maxDeg"},
		Notes: []string{
			"stand-ins are synthetic graphs with matched structure (DESIGN.md §2)",
		},
	}
	for _, d := range s.Profile.datasets() {
		g, _, err := s.load(d.Name)
		if err != nil {
			return nil, err
		}
		t.AddRow(d.Name, d.Description, d.PaperV, d.PaperE,
			g.NumVertices(), g.NumEdges(), g.MaxDegree())
	}
	return []*Table{t}, nil
}
