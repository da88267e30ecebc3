package aspmv

import (
	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/sparse"
)

// MulOverlapped drives one halo exchange fused with the node's local product
// through its planned kernel: the Start half posts the traffic, the interior
// rows multiply while the halo is in flight, the Finish half scatters the
// ghost values, and the boundary rows complete the product. xg is the
// owned+ghost assembly buffer (length m + GhostLen) with xg[:m] already
// holding the owned block; dst has length m. With blocking the product waits
// for the whole halo first (the ablation path). The modeled compute cost
// charged per half matches the kernel's entry counts, so the simulated clock
// is independent of the storage layout.
//
// With augmented the exchange is the ASpMV's (StartAugmented /
// FinishAugmented): the ReceivedCopy of iteration iter is returned by value
// for the caller to retain. A plain exchange returns the zero ReceivedCopy.
//
// Each half lands on the node's span timeline (halo_post, spmv_interior,
// halo_wait, spmv_boundary — or halo_wait then a single spmv span when
// blocking); the obs.Rank methods no-op when tracing is off.
func (ex *Exchanger) MulOverlapped(nd *cluster.Node, k sparse.Kernel, dst, xg []float64, augmented bool, iter int, blocking bool) ReceivedCopy {
	m := len(xg) - ex.GhostLen()
	tr := nd.Trace()
	t0 := nd.Clock()
	ex.start(nd, xg[:m], augmented)
	tr.Span(obs.KindHaloPost, t0, nd.Clock())
	if !blocking {
		t0 = nd.Clock()
		k.MulInterior(dst, xg)
		nd.Compute(2 * float64(k.InteriorNNZ()))
		tr.Span(obs.KindSpMVInterior, t0, nd.Clock())
	}
	t0 = nd.Clock()
	rc := ex.finish(nd, xg[m:], augmented, iter)
	tr.Span(obs.KindHaloWait, t0, nd.Clock())
	t0 = nd.Clock()
	if blocking {
		k.Mul(dst, xg)
		nd.Compute(2 * float64(k.NNZ()))
		tr.Span(obs.KindSpMV, t0, nd.Clock())
	} else {
		k.MulBoundary(dst, xg)
		nd.Compute(2 * float64(k.BoundaryNNZ()))
		tr.Span(obs.KindSpMVBoundary, t0, nd.Clock())
	}
	return rc
}
