package core

import (
	"fmt"

	"esrp/internal/aspmv"
	"esrp/internal/dist"
	"esrp/internal/precond"
	"esrp/internal/sparse"
)

// Prepared is a reusable read-only solve context: the row partition, the
// (possibly φ-augmented) communication plan, and the per-rank compact local
// matrices and preconditioners of one (matrix, node count, redundancy,
// partitioning, preconditioner) combination. All of it is immutable during a
// solve, so one Prepared may back any number of solves — including
// concurrent ones — that share those settings. The campaign engine builds
// each distinct context once and shares it across every grid cell that uses
// it, instead of re-deriving identical plans per cell.
type Prepared struct {
	a        *sparse.CSR
	nodes    int
	phi      int // augmentation baked into the plan (0 = plain product)
	balance  bool
	kind     precond.Kind
	maxBlock int
	kernel   sparse.KernelKind

	part   *dist.Partition
	plan   *aspmv.Plan
	locals []*sparse.Local
	kerns  []sparse.Kernel
	pcs    []precond.Preconditioner
}

// preparedPhi returns the augmentation level a config's solve bakes into
// its plan: φ for the redundant-storage strategies, 0 otherwise.
func preparedPhi(cfg *Config) int {
	if cfg.Strategy == StrategyESR || cfg.Strategy == StrategyESRP {
		return cfg.Phi
	}
	return 0
}

// Prepare builds the shared solve context for cfg (defaults applied): the
// exact partition, plan, local matrices and preconditioners Solve would
// derive on its own. Pass the result via Config.Prepared to any solve with
// matching settings.
func Prepare(cfg Config) (*Prepared, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return prepare(&cfg)
}

// prepare is Prepare for a defaulted config — also what a solve without
// Config.Prepared runs, so the prepared and per-solve paths cannot drift
// apart. The plan is φ-augmented when the strategy stores redundant copies.
func prepare(cfg *Config) (*Prepared, error) {
	part, err := buildPartition(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := aspmv.NewPlan(cfg.A, part)
	if err != nil {
		return nil, err
	}
	phi := preparedPhi(cfg)
	if phi > 0 {
		if err := plan.Augment(phi); err != nil {
			return nil, err
		}
	}
	p := &Prepared{
		a: cfg.A, nodes: cfg.Nodes, phi: phi,
		balance: cfg.BalanceNNZ, kind: cfg.PrecondKind, maxBlock: cfg.MaxBlock,
		kernel: cfg.Kernel,
		part:   part, plan: plan,
		locals: make([]*sparse.Local, cfg.Nodes),
		kerns:  make([]sparse.Kernel, cfg.Nodes),
		pcs:    make([]precond.Preconditioner, cfg.Nodes),
	}
	for s := 0; s < cfg.Nodes; s++ {
		lo, hi := part.Lo(s), part.Hi(s)
		pc, err := precond.Build(cfg.PrecondKind, cfg.A, lo, hi, cfg.MaxBlock)
		if err != nil {
			return nil, err
		}
		if pc.CouplesAcrossNodes() {
			return nil, fmt.Errorf("core: preconditioners coupling across node boundaries are not supported by the reconstruction")
		}
		local, err := sparse.NewLocal(cfg.A, lo, hi, plan.Ghost(s))
		if err != nil {
			return nil, fmt.Errorf("core: local matrix extraction: %w", err)
		}
		p.pcs[s] = pc
		p.locals[s] = local
		p.kerns[s] = sparse.BuildKernel(local, cfg.Kernel)
	}
	return p, nil
}

// compatibleWith rejects reuse under mismatched settings — a silently wrong
// plan would corrupt trajectories, so this fails loudly instead.
func (p *Prepared) compatibleWith(cfg *Config) error {
	switch {
	case p.a != cfg.A:
		return fmt.Errorf("core: Prepared was built for a different matrix")
	case p.nodes != cfg.Nodes:
		return fmt.Errorf("core: Prepared was built for %d nodes, solve uses %d", p.nodes, cfg.Nodes)
	case p.phi != preparedPhi(cfg):
		return fmt.Errorf("core: Prepared plan augmentation phi=%d does not match solve phi=%d", p.phi, preparedPhi(cfg))
	case p.balance != cfg.BalanceNNZ:
		return fmt.Errorf("core: Prepared partition balancing does not match config")
	case p.kind != cfg.PrecondKind || p.maxBlock != cfg.MaxBlock:
		return fmt.Errorf("core: Prepared preconditioner (%v, maxBlock %d) does not match config (%v, %d)",
			p.kind, p.maxBlock, cfg.PrecondKind, cfg.MaxBlock)
	case p.kernel != cfg.Kernel:
		return fmt.Errorf("core: Prepared SpMV kernel (%v) does not match config (%v)", p.kernel, cfg.Kernel)
	}
	return nil
}

// Workspace is a reusable pool of per-rank solver vector buffers. A
// campaign worker keeps one Workspace and passes it to every cell it solves
// (Config.Workspace): the steady-state vectors of cell k+1 then reuse the
// allocations of cell k instead of growing the heap. A Workspace must not
// be shared by two solves running at the same time. Buffers handed out by
// grab carry stale values from the previous cell — the solver routes only
// provably overwritten-before-read vectors through it — while grabZero
// clears, matching a fresh make.
type Workspace struct {
	nodes []*nodeArena
}

// nodeArena is one rank's bump allocator: buffers are handed out in call
// order and the cursor rewinds between solves. Only the goroutine of its
// rank touches it during a run.
type nodeArena struct {
	bufs [][]float64
	next int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// reset prepares the workspace for a solve on n nodes. Solve calls it
// before the node goroutines spawn.
func (ws *Workspace) reset(n int) {
	for len(ws.nodes) < n {
		ws.nodes = append(ws.nodes, &nodeArena{})
	}
	for _, na := range ws.nodes {
		na.next = 0
	}
}

func (ws *Workspace) node(rank int) *nodeArena { return ws.nodes[rank] }

// grab returns a buffer of n floats, reusing the slot's previous allocation
// when it is large enough. Reused contents are NOT cleared — callers must
// fully overwrite the buffer before reading it (the previous cell may have
// left NaNs behind).
func (na *nodeArena) grab(n int) []float64 {
	if na.next < len(na.bufs) && cap(na.bufs[na.next]) >= n {
		buf := na.bufs[na.next][:n]
		na.next++
		return buf
	}
	buf := make([]float64, n)
	if na.next < len(na.bufs) {
		na.bufs[na.next] = buf
	} else {
		na.bufs = append(na.bufs, buf)
	}
	na.next++
	return buf
}

// grabZero is grab with the buffer cleared — for vectors whose zero value
// is semantically meaningful (the initial iterand).
func (na *nodeArena) grabZero(n int) []float64 {
	buf := na.grab(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
