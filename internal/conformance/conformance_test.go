package conformance

import (
	"flag"
	"strings"
	"testing"
)

// Deterministic by default; -seed shifts the whole window for soak runs.
var seedFlag = flag.Int64("seed", 1, "base seed for conformance rounds")

func logSeedOnFailure(t *testing.T, seed int64) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with: go test ./internal/conformance -run %s -seed %d", t.Name(), seed)
		}
	})
}

// TestSeededRounds is the in-repo slice of what cubeconform runs at larger
// scale: every registered engine, driven through generated scenarios, must
// agree with the oracle on every step and satisfy the metamorphic
// catalogue.
func TestSeededRounds(t *testing.T) {
	logSeedOnFailure(t, *seedFlag)
	rounds := int64(40)
	if testing.Short() {
		rounds = 10
	}
	env := Env{TempDir: func() (string, error) { return t.TempDir(), nil }}
	for seed := *seedFlag; seed < *seedFlag+rounds; seed++ {
		sc := GenScenario(seed)
		fail, err := Run(sc, Options{Env: env})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fail != nil {
			t.Fatalf("seed %d (%s, shape %v): %v", seed, sc.Label, sc.Shape, fail)
		}
	}
}

// TestParSeqBitIdentity holds the PR-1 kernels to their contract on the
// same generated geometries the differential rounds use.
func TestParSeqBitIdentity(t *testing.T) {
	logSeedOnFailure(t, *seedFlag)
	for seed := *seedFlag; seed < *seedFlag+15; seed++ {
		if fail := CheckParSeq(GenScenario(seed), 8); fail != nil {
			t.Fatalf("seed %d: %v", seed, fail)
		}
	}
}

// TestEmptyAndDegenerateRegions pins the edge geometry explicitly instead
// of waiting for the generator to roll it.
func TestEmptyAndDegenerateRegions(t *testing.T) {
	sc := &Scenario{
		Shape: []int{3, 1, 4},
		Data: []int64{
			5, -2, 0, 7,
			0, 0, 0, 0,
			-9, 1, 1, -300,
		},
		Ops: []Op{
			{Kind: OpSum, Region: Rect{{0, -1}, {0, 0}, {0, 3}}}, // empty in dim 0
			{Kind: OpMax, Region: Rect{{0, 2}, {0, 0}, {2, 1}}},  // empty in dim 2
			{Kind: OpSum, Region: Rect{{1, 1}, {0, 0}, {3, 3}}},  // single cell
			{Kind: OpSum, Region: Rect{{0, 2}, {0, 0}, {0, 3}}},  // full cube
			{Kind: OpMax, Region: Rect{{2, 2}, {0, 0}, {0, 3}}},  // one line
			{Kind: OpUpdate, Assigns: []Assign{{Coords: []int{0, 0, 2}, Value: 11}}},
			{Kind: OpSum, Region: Rect{{0, 0}, {0, 0}, {2, 2}}},
		},
	}
	env := Env{TempDir: func() (string, error) { return t.TempDir(), nil }}
	fail, err := Run(sc, Options{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}

// TestGoldenRegressions replays every adopted counterexample under
// testdata/regressions; all must pass on the current engines.
func TestGoldenRegressions(t *testing.T) {
	fails, names, err := GoldenScenarios("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("no golden regressions found; testdata/regressions should hold at least the seed vector")
	}
	env := Env{TempDir: func() (string, error) { return t.TempDir(), nil }}
	for i, f := range fails {
		fail, err := Run(f.Scenario, Options{Env: env})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if fail != nil {
			t.Errorf("%s: regression resurfaced: %v", names[i], fail)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"no dims", Scenario{}},
		{"bad extent", Scenario{Shape: []int{0}, Data: nil}},
		{"data mismatch", Scenario{Shape: []int{2}, Data: []int64{1, 2, 3}}},
		{"region dims", Scenario{Shape: []int{2}, Data: []int64{1, 2}, Ops: []Op{{Kind: OpSum, Region: Rect{{0, 1}, {0, 1}}}}}},
		{"region bounds", Scenario{Shape: []int{2}, Data: []int64{1, 2}, Ops: []Op{{Kind: OpSum, Region: Rect{{0, 2}}}}}},
		{"assign bounds", Scenario{Shape: []int{2}, Data: []int64{1, 2}, Ops: []Op{{Kind: OpUpdate, Assigns: []Assign{{Coords: []int{5}, Value: 1}}}}}},
		{"unknown kind", Scenario{Shape: []int{2}, Data: []int64{1, 2}, Ops: []Op{{Kind: "frobnicate"}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", tc.name)
		}
	}
	ok := Scenario{Shape: []int{2, 2}, Data: []int64{1, 2, 3, 4}, Ops: []Op{
		{Kind: OpSum, Region: Rect{{0, 1}, {1, 0}}},
		{Kind: OpCheckpoint},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestEngineFilter(t *testing.T) {
	sums := FilterSum(DefaultSumEngines(), "blocked")
	if len(sums) == 0 {
		t.Fatal("filter dropped every blocked engine")
	}
	for _, f := range sums {
		if !strings.Contains(f.Name, "blocked") {
			t.Errorf("filter kept %q", f.Name)
		}
	}
	if got := len(FilterSum(DefaultSumEngines(), "")); got != len(DefaultSumEngines()) {
		t.Errorf("empty filter should keep all, kept %d", got)
	}
	if got := len(FilterMax(DefaultMaxEngines(), "mintree")); got != 1 {
		t.Errorf("mintree filter kept %d engines", got)
	}
}

func TestGoTestRendering(t *testing.T) {
	f := &Failure{
		Scenario: &Scenario{
			Shape: []int{2},
			Data:  []int64{0, 1},
			Ops: []Op{
				{Kind: OpSum, Region: Rect{{1, 1}}},
				{Kind: OpUpdate, Assigns: []Assign{{Coords: []int{0}, Value: 3}}},
				{Kind: OpCheckpoint},
				{Kind: OpMax, Region: Rect{{0, 1}}},
			},
		},
		Engine: "faulty-blocked", Check: "differential", Got: 0, Want: 1,
	}
	src := f.GoTest("OffByOne")
	for _, want := range []string{
		"func TestConformanceRegressionOffByOne(t *testing.T)",
		"conformance.OpSum", "conformance.OpUpdate", "conformance.OpCheckpoint", "conformance.OpMax",
		"Shape: []int{2}", "conformance.Run(sc, conformance.Options{})",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated test missing %q:\n%s", want, src)
		}
	}
}
