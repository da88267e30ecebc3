package core

import (
	"strings"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/sparse"
)

// TestKernelTrajectoriesBitwiseIdentical is the solver-level acceptance of
// the structure-aware kernels: every forced storage layout must reproduce
// the scalar-CSR run of every strategy/recovery scenario bit for bit —
// residual logs, iterand, simulated clock and traffic included. The planner
// (auto) runs as one of the forced kinds, so its per-block choices are
// pinned too.
func TestKernelTrajectoriesBitwiseIdentical(t *testing.T) {
	for name, base := range localPathScenarios(t) {
		ref := base
		ref.kernel = sparse.KernelCSR
		want := solveOK(t, ref)
		for _, kind := range []sparse.KernelKind{sparse.KernelAuto, sparse.KernelBand} {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				cfg := base
				cfg.kernel = kind
				got := solveOK(t, cfg)
				if got.Iterations != want.Iterations || got.TotalSteps != want.TotalSteps {
					t.Fatalf("iterations (%d,%d) != csr (%d,%d)",
						got.Iterations, got.TotalSteps, want.Iterations, want.TotalSteps)
				}
				gotRes, wantRes := residualsOf(got), residualsOf(want)
				if len(gotRes) != len(wantRes) {
					t.Fatalf("residual log %d entries, csr %d", len(gotRes), len(wantRes))
				}
				for i := range gotRes {
					if gotRes[i] != wantRes[i] {
						t.Fatalf("residual %d = %v, csr %v (must be bitwise identical)",
							i, gotRes[i], wantRes[i])
					}
				}
				for i := range got.X {
					if got.X[i] != want.X[i] {
						t.Fatalf("x[%d] = %v, csr %v", i, got.X[i], want.X[i])
					}
				}
				if got.SimTime != want.SimTime || got.BytesSent != want.BytesSent ||
					got.MsgsSent != want.MsgsSent || got.HaloBytes != want.HaloBytes {
					t.Fatalf("clock/traffic (%v,%d,%d,%d) differ from csr (%v,%d,%d,%d)",
						got.SimTime, got.BytesSent, got.MsgsSent, got.HaloBytes,
						want.SimTime, want.BytesSent, want.MsgsSent, want.HaloBytes)
				}
			})
		}
	}
}

// TestSolveReportsKernels: Result.Kernels carries one layout name per node,
// and the Poisson test problem's slabs plan onto the band layout.
func TestSolveReportsKernels(t *testing.T) {
	cfg := baseConfig(t)
	cfg.kernel = sparse.KernelAuto
	res := solveOK(t, cfg)
	if len(res.Kernels) != cfg.Nodes {
		t.Fatalf("Result.Kernels has %d entries, want %d", len(res.Kernels), cfg.Nodes)
	}
	condensed := CondenseKernels(res.Kernels)
	if !strings.Contains(condensed, "band") {
		t.Fatalf("planner chose %q for the Poisson slabs, expected band blocks", condensed)
	}
	forced := baseConfig(t)
	forced.kernel = sparse.KernelCSR
	fres := solveOK(t, forced)
	if c := CondenseKernels(fres.Kernels); c != "csr×8" {
		t.Fatalf("forced csr condenses to %q", c)
	}
}

// TestPreparedRejectsKernelMismatch: a Prepared context is bound to its
// kernel kind — reusing it under a different forced layout must fail loudly
// instead of silently dispatching through the wrong storage.
func TestPreparedRejectsKernelMismatch(t *testing.T) {
	cfg := baseConfig(t)
	cfg.kernel = sparse.KernelAuto
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.kernel = sparse.KernelCSR
	bad.Prepared = prep
	if _, err := Solve(bad); err == nil {
		t.Fatal("Solve accepted a Prepared context built for a different kernel kind")
	}
}

// TestPlannerLayouts pins the planner's choice on the matrices the benchmark
// workloads and esrpsolve's generators solve: every node of every stencil
// system plans the band layout, at each node count the workload runs (the
// recovery-storm matrix at every size its shrinks reach) and under each
// communication plan it uses — plain (None, IMCR) or augmented by φ (ESR,
// ESRP). The random-length rows of -gen banded form no band runs and stay on
// scalar CSR rows.
func TestPlannerLayouts(t *testing.T) {
	cases := []struct {
		name  string
		a     *sparse.CSR
		nodes []int
		phis  []int // plan augmentation; 0 = plain
		want  string
	}{
		{"solve-fat", matgen.EmiliaLike(24, 24, 24, 1), []int{4}, []int{0, 1}, "band"},
		{"solve-wide", matgen.EmiliaLike(16, 16, 32, 1), []int{128}, []int{0, 3}, "band"},
		{"recovery-storm", matgen.AudikwLike(10, 10, 10, 3, 1), []int{2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 3}, "band"},
		{"sweep/poisson2d-48", matgen.Poisson2D(48, 48), []int{8, 16}, []int{0, 1, 3}, "band"},
		{"sweep/emilia-12", matgen.EmiliaLike(12, 12, 12, 1), []int{8, 16}, []int{0, 1, 3}, "band"},
		{"gen/poisson2d", matgen.Poisson2D(32, 32), []int{8}, []int{1}, "band"},
		{"gen/poisson3d", matgen.Poisson3D(32, 32, 32), []int{8}, []int{1}, "band"},
		{"gen/emilia", matgen.EmiliaLike(32, 32, 32, 1), []int{8}, []int{1}, "band"},
		{"gen/audikw", matgen.AudikwLike(32, 32, 32, 3, 1), []int{8}, []int{1}, "band"},
		{"gen/banded", matgen.BandedSPD(32*32, 8, 1), []int{8}, []int{1}, "csr"},
	}
	for _, c := range cases {
		b, _ := matgen.RHSForSolution(c.a, 1)
		for _, nodes := range c.nodes {
			for _, phi := range c.phis {
				if phi >= nodes {
					continue
				}
				cfg := Config{A: c.a, B: b, Nodes: nodes, MaxIter: 1, Strategy: StrategyNone}
				if phi > 0 {
					cfg.Strategy, cfg.Phi = StrategyESR, phi
				}
				res, err := Solve(cfg)
				if err != nil {
					t.Fatalf("%s on %d nodes, φ = %d: %v", c.name, nodes, phi, err)
				}
				for s, name := range res.Kernels {
					if name != c.want {
						t.Errorf("%s on %d nodes, φ = %d: node %d plans %s, want %s (%s)",
							c.name, nodes, phi, s, name, c.want, CondenseKernels(res.Kernels))
						break
					}
				}
			}
		}
	}
}
