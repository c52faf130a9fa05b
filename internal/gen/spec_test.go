package gen

import (
	"strings"
	"testing"
)

func TestParseSpecKinds(t *testing.T) {
	cases := []struct {
		spec      string
		vertices  int
		wantTruth bool
	}{
		{"rmat:scale=8,ef=8,seed=2", 256, false},
		{"ba:n=500,m=3,seed=2", 500, false},
		{"lfr:n=400,mu=0.2,seed=2", 400, true},
		{"er:n=300,p=0.02,seed=2", 300, false},
		{"sbm:blocks=3,size=50,pin=0.3,pout=0.01,seed=2", 150, true},
		{"caveman:cliques=5,size=4", 20, true},
		{"rmat:scale=8,ef=8,seed=2,skew=0.7", 256, false},
	}
	for _, c := range cases {
		g, truth, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if g.NumVertices() != c.vertices {
			t.Errorf("%s: %d vertices, want %d", c.spec, g.NumVertices(), c.vertices)
		}
		if (truth != nil) != c.wantTruth {
			t.Errorf("%s: truth presence = %v, want %v", c.spec, truth != nil, c.wantTruth)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	g, _, err := ParseSpec("ba")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10000 {
		t.Errorf("default ba n = %d", g.NumVertices())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"unknown:n=5",
		"ba:n",          // missing value
		"ba:n=abc",      // bad int
		"lfr:mu=oops",   // bad float
		"lfr:n=2,mu=.2", // invalid LFR bounds propagate
	} {
		if _, _, err := ParseSpec(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

func TestParseSpecErrorMentionsKind(t *testing.T) {
	_, _, err := ParseSpec("zzz:a=1")
	if err == nil || !strings.Contains(err.Error(), "zzz") {
		t.Errorf("err = %v", err)
	}
}
