package precond

import "fmt"

// Composite applies a sequence of node-local preconditioners to consecutive
// segments of a larger local range. It is used by the no-spare-node
// recovery (cf. [Pachajoa, Pacher, Gansterer 2019], ref. 22 of the paper):
// when a surviving node adopts the row range of failed nodes, it must keep
// applying the *identical* preconditioner operator the cluster used before
// the failure — the failed nodes' diagonal blocks, not one re-derived from
// the merged range — or the solver would leave the reference trajectory.
type Composite struct {
	segs  []compositeSeg
	total int
}

type compositeSeg struct {
	off, n int
	pc     Preconditioner
}

// NewComposite stitches parts together; sizes[i] is the local length of
// parts[i]. Segments are laid out consecutively in the given order.
func NewComposite(parts []Preconditioner, sizes []int) (*Composite, error) {
	if len(parts) != len(sizes) {
		return nil, fmt.Errorf("precond: %d parts but %d sizes", len(parts), len(sizes))
	}
	c := &Composite{}
	off := 0
	for i, p := range parts {
		if sizes[i] < 0 {
			return nil, fmt.Errorf("precond: negative segment size %d", sizes[i])
		}
		if p.CouplesAcrossNodes() {
			return nil, fmt.Errorf("precond: composite segments must be node-local")
		}
		c.segs = append(c.segs, compositeSeg{off: off, n: sizes[i], pc: p})
		off += sizes[i]
	}
	c.total = off
	return c, nil
}

// Apply implements Preconditioner segment-wise.
func (c *Composite) Apply(z, r []float64) {
	for _, s := range c.segs {
		s.pc.Apply(z[s.off:s.off+s.n], r[s.off:s.off+s.n])
	}
}

// ApplyFlops implements Preconditioner.
func (c *Composite) ApplyFlops() float64 {
	var f float64
	for _, s := range c.segs {
		f += s.pc.ApplyFlops()
	}
	return f
}

// SolveRestricted implements Preconditioner segment-wise.
func (c *Composite) SolveRestricted(r, v []float64) {
	for _, s := range c.segs {
		s.pc.SolveRestricted(r[s.off:s.off+s.n], v[s.off:s.off+s.n])
	}
}

// SolveRestrictedFlops implements Preconditioner.
func (c *Composite) SolveRestrictedFlops() float64 {
	var f float64
	for _, s := range c.segs {
		f += s.pc.SolveRestrictedFlops()
	}
	return f
}

// CouplesAcrossNodes implements Preconditioner: all segments are local.
func (c *Composite) CouplesAcrossNodes() bool { return false }
