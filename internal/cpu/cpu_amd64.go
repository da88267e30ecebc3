package cpu

func hasAVX() bool
