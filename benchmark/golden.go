package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json was written at. At any other seed only
// the invariant checks apply.
const goldenSeed = 1

// goldenFile holds the simulated per-cell statistics of every workload at
// goldenSeed: scale → golden key → cells in grid order.
type goldenFile struct {
	Seed   int64                            `json:"seed"`
	Scales map[string]map[string][]cellStat `json:"scales"`
}

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func loadGolden(root string) (*goldenFile, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("%s was written at seed %d, this program checks it at seed %d", goldenPath(root), g.Seed, goldenSeed)
	}
	return &g, nil
}

// check compares one pass's cells with the golden ones and counts every
// mismatching cell as failed, keeping the first differing field of the
// first bad cell.
func (g *goldenFile) check(sc, key string, out *passOut) {
	want := g.Scales[sc][key]
	if len(want) != len(out.cells) {
		out.fail("golden %s/%s has %d cells, the pass produced %d (run with -update-golden after an intended change)", sc, key, len(want), len(out.cells))
		return
	}
	for i := range out.cells {
		if d := out.cells[i].diff(want[i]); d != "" {
			out.fail("cell %d (%s): %s", i, out.cells[i].Cell, d)
		}
	}
}

// updateGolden reruns one pass of every workload at both scales and
// rewrites golden.json. Only -update-golden calls it.
func updateGolden(root, tmp string) error {
	g := goldenFile{Seed: goldenSeed, Scales: map[string]map[string][]cellStat{}}
	for _, sc := range []string{"full", "tiny"} {
		g.Scales[sc] = map[string][]cellStat{}
		for i := range workloads {
			w := &workloads[i]
			if g.Scales[sc][w.golden] != nil {
				continue // the sweeps share one entry
			}
			in := w.new(sc, goldenSeed, tmp)
			if err := in.setup(nil); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			out, err := in.pass(nil)
			in.close()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if out.failed > 0 {
				return fmt.Errorf("%s: refusing to record a failing pass: %s", w.name, out.firstBad)
			}
			g.Scales[sc][w.golden] = out.cells
		}
	}
	data, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}
