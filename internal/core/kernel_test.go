package core

import (
	"strings"
	"testing"

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
		for _, kind := range []sparse.KernelKind{sparse.KernelAuto, sparse.KernelSellC, sparse.KernelBand} {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				cfg := base
				cfg.kernel = kind
				got := solveOK(t, cfg)
				if got.Iterations != want.Iterations || got.TotalSteps != want.TotalSteps {
					t.Fatalf("iterations (%d,%d) != csr (%d,%d)",
						got.Iterations, got.TotalSteps, want.Iterations, want.TotalSteps)
				}
				if len(got.Residuals) != len(want.Residuals) {
					t.Fatalf("residual log %d entries, csr %d", len(got.Residuals), len(want.Residuals))
				}
				for i := range got.Residuals {
					if got.Residuals[i] != want.Residuals[i] {
						t.Fatalf("residual %d = %v, csr %v (must be bitwise identical)",
							i, got.Residuals[i], want.Residuals[i])
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
	bad.kernel = sparse.KernelSellC
	bad.Prepared = prep
	if _, err := Solve(bad); err == nil {
		t.Fatal("Solve accepted a Prepared context built for a different kernel kind")
	}
}
