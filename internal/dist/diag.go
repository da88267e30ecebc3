package dist

import (
	"fmt"
	"strings"

	"esrp/internal/sparse"
)

// Loads returns the per-part weight sums of the partition. The weight
// vector must cover the full global range.
func (p *Partition) Loads(weights []float64) ([]float64, error) {
	if len(weights) != p.M {
		return nil, fmt.Errorf("dist: %d weights for a partition of %d indices", len(weights), p.M)
	}
	loads := make([]float64, p.N)
	for s := 0; s < p.N; s++ {
		var sum float64
		for i := p.offsets[s]; i < p.offsets[s+1]; i++ {
			sum += weights[i]
		}
		loads[s] = sum
	}
	return loads, nil
}

// Imbalance returns the load-imbalance factor max/mean of the given
// per-part loads — 1.0 is perfect balance; the factor bounds the speedup
// lost to the slowest node. Zero total load reports 1.0.
func Imbalance(loads []float64) float64 {
	var max, total float64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return max * float64(len(loads)) / total
}

// GhostVolume estimates the communication volume of one distributed SpMV of
// a under the partition: perPart[s] counts the distinct external vector
// entries part s must receive (its ghost entries), total their sum — the
// number of vector-entry transfers per product, before any redundancy
// augmentation.
func (p *Partition) GhostVolume(a *sparse.CSR) (perPart []int, total int, err error) {
	if a.Rows != p.M {
		return nil, 0, fmt.Errorf("dist: matrix has %d rows, partition covers %d", a.Rows, p.M)
	}
	perPart = make([]int, p.N)
	seen := make([]bool, a.Cols)
	var touched []int
	for s := 0; s < p.N; s++ {
		lo, hi := p.offsets[s], p.offsets[s+1]
		touched = touched[:0]
		for i := lo; i < hi; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if (j < lo || j >= hi) && !seen[j] {
					seen[j] = true
					touched = append(touched, j)
				}
			}
		}
		perPart[s] = len(touched)
		total += len(touched)
		for _, j := range touched {
			seen[j] = false
		}
	}
	return perPart, total, nil
}

// Quality bundles the partition diagnostics for one matrix: the per-part
// nonzero loads, their imbalance factor, and the SpMV ghost-entry volume.
type Quality struct {
	Loads      []float64 // per-part nonzero counts
	MaxLoad    float64
	MeanLoad   float64
	Imbalance  float64 // MaxLoad / MeanLoad
	Ghosts     []int   // per-part ghost entries of one SpMV
	GhostTotal int
}

// Analyze computes the Quality of the partition for matrix a, using the
// per-row nonzero count as the load weight (the SpMV flop share).
func (p *Partition) Analyze(a *sparse.CSR) (*Quality, error) {
	if a.Rows != p.M {
		return nil, fmt.Errorf("dist: matrix has %d rows, partition covers %d", a.Rows, p.M)
	}
	weights := make([]float64, a.Rows)
	for i := range weights {
		weights[i] = float64(a.RowPtr[i+1] - a.RowPtr[i])
	}
	loads, err := p.Loads(weights)
	if err != nil {
		return nil, err
	}
	q := &Quality{Loads: loads, Imbalance: Imbalance(loads)}
	var total float64
	for _, l := range loads {
		total += l
		if l > q.MaxLoad {
			q.MaxLoad = l
		}
	}
	q.MeanLoad = total / float64(p.N)
	if q.Ghosts, q.GhostTotal, err = p.GhostVolume(a); err != nil {
		return nil, err
	}
	return q, nil
}

// String renders the headline quality numbers for diagnostics output.
func (q *Quality) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load max/mean %.0f/%.0f (imbalance %.3f), ghosts %d",
		q.MaxLoad, q.MeanLoad, q.Imbalance, q.GhostTotal)
	return b.String()
}
