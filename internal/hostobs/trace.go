package hostobs

import (
	"strconv"

	"esrp/internal/obs"
)

// BuildTrace converts the recorder into an obs.HostTrace: one thread per
// campaign worker, one "X" span per solved cell (named by the label
// callback, typically "matrix/strategy T=.. φ=..", with the cell index in
// the iter arg). The phase arg distinguishes affinity-hit cells
// ("affinity") from context-switch cells ("cold"). Returns nil on a nil
// recorder.
func (r *CampaignRecorder) BuildTrace(process string, build obs.BuildInfo, label func(index int) (name, cat string)) *obs.HostTrace {
	if r == nil {
		return nil
	}
	t := &obs.HostTrace{
		Process:     process,
		WallSeconds: float64(r.WallNs()) / 1e9,
		Build:       build,
		Threads:     make([]obs.HostThread, len(r.workers)),
	}
	for w := range r.workers {
		wl := &r.workers[w]
		th := &t.Threads[w]
		th.Name = "worker " + strconv.Itoa(w)
		th.Spans = make([]obs.HostSpan, 0, len(wl.spans))
		for _, s := range wl.spans {
			hs := obs.HostSpan{
				Start: float64(s.startNs) / 1e9,
				End:   float64(s.endNs) / 1e9,
				Iter:  s.index,
				Phase: "cold",
			}
			hs.Name, hs.Cat = label(s.index)
			if s.affinity {
				hs.Phase = "affinity"
			}
			th.Spans = append(th.Spans, hs)
		}
	}
	return t
}
