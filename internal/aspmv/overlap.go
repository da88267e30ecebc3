package aspmv

import (
	"esrp/internal/cluster"
	"esrp/internal/replay"
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
// Each half lands on the node's span timeline through what the schedule
// records: the sends and receives as halo_post and halo_wait, and the
// products as spmv_interior and spmv_boundary — or one spmv when blocking.
func (ex *Exchanger) MulOverlapped(nd *cluster.Node, k sparse.Kernel, dst, xg []float64, augmented bool, iter int, blocking bool) ReceivedCopy {
	m := len(xg) - ex.GhostLen()
	ex.start(nd, xg[:m], augmented)
	if !blocking {
		k.MulInterior(dst, xg)
		nd.Compute(replay.WorkSpMVInterior, 2*float64(k.InteriorNNZ()))
	}
	rc := ex.finish(nd, xg[m:], augmented, iter)
	if blocking {
		k.Mul(dst, xg)
		nd.Compute(replay.WorkSpMV, 2*float64(k.NNZ()))
	} else {
		k.MulBoundary(dst, xg)
		nd.Compute(replay.WorkSpMVBoundary, 2*float64(k.BoundaryNNZ()))
	}
	return rc
}
