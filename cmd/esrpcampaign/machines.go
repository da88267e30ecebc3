package main

import (
	"fmt"
	"strconv"
	"strings"

	"esrp"
	"esrp/internal/campaign"
)

// parseMachineSweep parses the -sweep-machine axis: semicolon-separated
// per-parameter value lists "L=...;o=...;G=...;f=..." crossed into a machine
// grid. Keys name the LogGP parameters: L = Latency, o = Overhead,
// G = BytePeriod (seconds per byte, 1/bandwidth), f = FlopTime. Values are
// comma-separated absolute seconds, or multipliers of the base model with an
// "x" suffix ("L=1x,4x,16x"). Parameters not swept keep the base model's
// values; points are enumerated with the last segment varying fastest, so
// the grid order is deterministic.
func parseMachineSweep(spec string, base esrp.CostModel) ([]esrp.CampaignMachine, error) {
	type axis struct {
		key  string
		vals []float64
	}
	baseOf := map[string]float64{
		"L": base.Latency, "o": base.Overhead, "G": base.BytePeriod, "f": base.FlopTime,
	}
	var axes []axis
	seen := make(map[string]bool)
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		key, list, ok := strings.Cut(seg, "=")
		if !ok {
			return nil, fmt.Errorf("segment %q: want key=v1,v2,...", seg)
		}
		key = strings.TrimSpace(key)
		baseVal, known := baseOf[key]
		if !known {
			return nil, fmt.Errorf("unknown machine parameter %q (want L, o, G or f)", key)
		}
		if seen[key] {
			return nil, fmt.Errorf("parameter %q swept twice", key)
		}
		seen[key] = true
		vals, err := campaign.ParseList(list, func(v string) (float64, error) {
			var f float64
			var err error
			if m, isMult := strings.CutSuffix(v, "x"); isMult {
				f, err = strconv.ParseFloat(m, 64)
				f *= baseVal
			} else {
				f, err = strconv.ParseFloat(v, 64)
			}
			if err != nil {
				return 0, fmt.Errorf("bad value %q: %w", v, err)
			}
			if f <= 0 {
				return 0, fmt.Errorf("value %q: machine parameters must be positive", v)
			}
			return f, nil
		})
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", key, err)
		}
		axes = append(axes, axis{key: key, vals: vals})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("empty spec (want e.g. \"L=1x,4x,16x;G=1x,8x\")")
	}

	models := []esrp.CostModel{base}
	names := []string{""}
	for _, ax := range axes {
		next := make([]esrp.CostModel, 0, len(models)*len(ax.vals))
		nextNames := make([]string, 0, len(models)*len(ax.vals))
		for i, m := range models {
			for _, v := range ax.vals {
				p := m
				switch ax.key {
				case "L":
					p.Latency = v
				case "o":
					p.Overhead = v
				case "G":
					p.BytePeriod = v
				case "f":
					p.FlopTime = v
				}
				name := names[i]
				if name != "" {
					name += ","
				}
				next = append(next, p)
				nextNames = append(nextNames, name+fmt.Sprintf("%s=%g", ax.key, v))
			}
		}
		models, names = next, nextNames
	}
	out := make([]esrp.CampaignMachine, len(models))
	for i := range models {
		out[i] = esrp.CampaignMachine{Name: names[i], Model: models[i]}
	}
	return out, nil
}
