//go:build !linux

package main

func fsType(string) string { return "unknown" }

func peakRSSMB() float64 { return 0 }
