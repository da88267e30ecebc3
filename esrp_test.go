package esrp_test

import (
	"math"
	"testing"

	"esrp"
	"esrp/internal/matgen"
)

func TestQuickstartAPI(t *testing.T) {
	a := esrp.Poisson2D(32, 32)
	b, xstar := esrp.RHSForSolution(a, 7)
	res, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: 4,
		Strategy: esrp.StrategyESRP, T: 20, Phi: 1,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: relres=%g after %d iterations", res.RelResidual, res.Iterations)
	}
	maxErr := 0.0
	for i := range xstar {
		if d := math.Abs(res.X[i] - xstar[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 1e-5 {
		t.Errorf("solution error %g too large", maxErr)
	}
}

func TestFailureRecoveryAPI(t *testing.T) {
	a := esrp.EmiliaLike(8, 8, 8, 3)
	b := esrp.RHSOnes(a.Rows)
	res, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: 8,
		Strategy: esrp.StrategyESRP, T: 10, Phi: 2,
		Failures: []esrp.FailureSpec{{Iteration: 25, Ranks: []int{3, 4}}},
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged || !res.Recovered {
		t.Fatalf("converged=%v recovered=%v, want both true", res.Converged, res.Recovered)
	}
	if res.RecoveryTime <= 0 {
		t.Errorf("recovery time %g, want > 0", res.RecoveryTime)
	}
}

func TestStrategiesConverge(t *testing.T) {
	a := esrp.Poisson2D(24, 24)
	b := esrp.RHSOnes(a.Rows)
	for _, tc := range []struct {
		name     string
		strategy esrp.Strategy
		tInt     int
	}{
		{"none", esrp.StrategyNone, 0},
		{"esr", esrp.StrategyESR, 1},
		{"esrp", esrp.StrategyESRP, 15},
		{"imcr", esrp.StrategyIMCR, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := esrp.Solve(esrp.Config{
				A: a, B: b, Nodes: 6,
				Strategy: tc.strategy, T: tc.tInt, Phi: 1,
			})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !res.Converged {
				t.Errorf("%s did not converge", tc.name)
			}
		})
	}
}

func TestExperimentAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("constellation run in -short mode")
	}
	rep, err := esrp.RunExperiment(esrp.ExperimentSpec{
		Name:   "poisson-api",
		Matrix: esrp.Poisson2D(20, 20),
		Nodes:  4,
		Ts:     []int{1, 10},
		Phis:   []int{1},
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if got := esrp.RenderOverheadTable(rep); got == "" {
		t.Error("empty overhead table")
	}
	if got := esrp.RenderDriftTable([]*esrp.ExperimentReport{rep}); got == "" {
		t.Error("empty drift table")
	}
	if got := esrp.RenderFigure(rep, true); got == "" {
		t.Error("empty figure")
	}
}

func TestParseStrategy(t *testing.T) {
	s, err := esrp.ParseStrategy("esrp")
	if err != nil || s != esrp.StrategyESRP {
		t.Errorf("ParseStrategy(esrp) = %v, %v", s, err)
	}
	if _, err := esrp.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy(bogus) should fail")
	}
}

func TestDefaultCostModel(t *testing.T) {
	m := esrp.DefaultCostModel()
	if m.FlopTime <= 0 || m.Latency <= 0 || m.BytePeriod <= 0 {
		t.Errorf("degenerate cost model: %+v", m)
	}
}

func TestGeneratorsProduceSPDStructure(t *testing.T) {
	for name, a := range map[string]*esrp.CSR{
		"poisson2d": esrp.Poisson2D(12, 12),
		"poisson3d": esrp.Poisson3D(6, 6, 6),
		"emilia":    esrp.EmiliaLike(5, 5, 5, 1),
		"audikw":    esrp.AudikwLike(4, 4, 4, 3, 1),
		"banded":    matgen.BandedSPD(200, 5, 1),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: invalid CSR: %v", name, err)
		}
		if !a.IsSymmetric(1e-12) {
			t.Errorf("%s: not symmetric", name)
		}
	}
}

func TestPartitionAPI(t *testing.T) {
	a := matgen.BandedSPD(300, 4, 2)
	part := esrp.NewBlockPartition(a.Rows, 6)
	if part.N != 6 || part.M != a.Rows {
		t.Fatalf("block partition reports M=%d N=%d", part.M, part.N)
	}
	q, err := part.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	if q.Imbalance < 1 {
		t.Fatalf("imbalance %g < 1", q.Imbalance)
	}

	// BalanceNNZ is the solver-facing entry to the balanced layout.
	b := esrp.RHSOnes(a.Rows)
	res, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: 6, BalanceNNZ: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("balanced solve did not converge")
	}
}

// The scenario/campaign surface: compile a stochastic failure process, run a
// multi-failure solve against a finite spare pool, and sweep a tiny grid.
func TestScenarioAndCampaignAPI(t *testing.T) {
	events, err := esrp.FailureScenario{
		Model: esrp.ScenarioExponential, Nodes: 8, Horizon: 60, MTBF: 250, Seed: 11,
	}.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("scenario compiled to no events")
	}

	a := esrp.Poisson2D(48, 48)
	b, xstar := esrp.RHSForSolution(a, 3)
	res, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: 8,
		Strategy: esrp.StrategyESR, Phi: 1, Spares: 1,
		Failures: []esrp.FailureSpec{
			{Iteration: 20, Ranks: []int{3}},
			{Iteration: 45, Ranks: []int{5}},
			{Iteration: 70, Ranks: []int{2}},
		},
	})
	if err != nil {
		t.Fatalf("multi-failure Solve: %v", err)
	}
	if !res.Converged {
		t.Fatal("multi-failure solve did not converge")
	}
	if len(res.Events) != 3 {
		t.Fatalf("got %d recovery events, want 3", len(res.Events))
	}
	if res.ActiveNodes != 6 {
		t.Fatalf("spare pool of 1 with 3 events must shrink to 6 nodes, got %d", res.ActiveNodes)
	}
	maxErr := 0.0
	for i, x := range res.X {
		maxErr = math.Max(maxErr, math.Abs(x-xstar[i]))
	}
	if maxErr > 1e-5 {
		t.Fatalf("max error %g after shrinking recovery", maxErr)
	}

	rep, err := esrp.RunCampaign(esrp.CampaignGrid{
		Matrices:   []esrp.CampaignMatrix{{Name: "poisson", A: esrp.Poisson2D(32, 32)}},
		Nodes:      []int{6},
		Strategies: []esrp.Strategy{esrp.StrategyESR},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   esrp.FailureScenario{Model: esrp.ScenarioExponential, MTBF: 400, Horizon: 50},
	})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if len(rep.Cells) != 2 || len(rep.Aggregates) != 1 {
		t.Fatalf("campaign shape: %d cells, %d aggregates", len(rep.Cells), len(rep.Aggregates))
	}
	if esrp.RenderCampaignTable(rep) == "" || esrp.CampaignSummary(rep) == "" {
		t.Fatal("campaign rendering empty")
	}
}
