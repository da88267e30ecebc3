package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 20,50")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 50 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list must fail")
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("non-integer must fail")
	}
	for _, csv := range []string{"0", "-3", "1,0"} {
		if got, err := parseInts(csv); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error for a non-positive entry", csv, got)
		}
	}
}

func TestGeneratorsAtScaleOne(t *testing.T) {
	g := generator{scale: 1}
	if a := g.emilia(); a.Rows != 24*24*24 {
		t.Fatalf("emilia rows = %d", a.Rows)
	}
	if a := g.audikw(); a.Rows != 28*28*28*3 {
		t.Fatalf("audikw rows = %d", a.Rows)
	}
}
