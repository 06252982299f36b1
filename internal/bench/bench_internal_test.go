package bench

import (
	"strings"
	"testing"
)

func TestFig4SmallSweep(t *testing.T) {
	points, err := Fig4([]int{2_000, 8_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Bytes <= 0 || p.Nodes <= 0 || p.Total <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	if points[1].Nodes <= points[0].Nodes {
		t.Error("sweep not increasing in size")
	}
	var b strings.Builder
	PrintFig4(&b, points)
	if !strings.Contains(b.String(), "Figure 4") {
		t.Error("PrintFig4 header missing")
	}
}

func TestFig5Sweep(t *testing.T) {
	points, err := Fig5(10_000, []float64{0.02, 0.20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.PerfectBytes <= 0 || p.ComputedBytes <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		if p.Ratio <= 0 || p.Ratio > 10 {
			t.Errorf("implausible quality ratio %+v", p)
		}
	}
	var b strings.Builder
	PrintFig5(&b, points)
	if !strings.Contains(b.String(), "Figure 5") {
		t.Error("PrintFig5 header missing")
	}
}

func TestFig6Corpus(t *testing.T) {
	points, sum, err := Fig6(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Docs == 0 || len(points) == 0 {
		t.Fatalf("no measurements: %+v", sum)
	}
	if sum.MeanRatio <= 0 {
		t.Errorf("mean ratio = %f", sum.MeanRatio)
	}
	var b strings.Builder
	PrintFig6(&b, points, sum)
	if !strings.Contains(b.String(), "mean ratio") {
		t.Error("PrintFig6 summary missing")
	}
}

func TestSiteExperiment(t *testing.T) {
	r, err := Site(150, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.DocBytes <= 0 || r.DeltaSize <= 0 || r.TotalTime <= 0 {
		t.Errorf("degenerate site result %+v", r)
	}
	if r.CoreTime > r.TotalTime {
		t.Errorf("core time exceeds total: %+v", r)
	}
	var b strings.Builder
	PrintSite(&b, r)
	if !strings.Contains(b.String(), "pages=150") {
		t.Error("PrintSite output missing fields")
	}
}

func TestBaselinesComparison(t *testing.T) {
	points, err := Baselines([]int{60, 150}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.BULD <= 0 || p.LuSelkow <= 0 || p.LaDiff <= 0 || p.DiffMK <= 0 {
			t.Errorf("missing timing in %+v", p)
		}
		if p.BULDSize <= 0 || p.LuSize <= 0 || p.LaSize <= 0 {
			t.Errorf("missing delta size in %+v", p)
		}
	}
	var b strings.Builder
	PrintBaselines(&b, points)
	if !strings.Contains(b.String(), "buld(us)") {
		t.Error("PrintBaselines header missing")
	}
}

func TestMovesSweep(t *testing.T) {
	points, err := Moves(8_000, []float64{0.0, 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].PerfectMoves != 0 {
		t.Errorf("moveProb=0 produced %d perfect moves", points[0].PerfectMoves)
	}
	if points[1].PerfectMoves == 0 {
		t.Error("moveProb=0.5 produced no moves")
	}
	var b strings.Builder
	PrintMoves(&b, points)
	if !strings.Contains(b.String(), "moveProb") {
		t.Error("PrintMoves header missing")
	}
}

func TestAblationsRun(t *testing.T) {
	points, err := Ablations(6_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("ablation configs = %d", len(points))
	}
	names := map[string]bool{}
	for _, p := range points {
		if p.Time <= 0 || p.DeltaSize <= 0 {
			t.Errorf("degenerate ablation %+v", p)
		}
		names[p.Name] = true
	}
	if !names["paper-default"] || !names["eager-down"] {
		t.Errorf("missing expected configs: %v", names)
	}
	var b strings.Builder
	PrintAblations(&b, points)
	if !strings.Contains(b.String(), "paper-default") {
		t.Error("PrintAblations output missing configs")
	}
}

func TestPrettyLines(t *testing.T) {
	s := prettyLines("<a><b>x</b></a>")
	if !strings.Contains(s, ">\n") {
		t.Error("prettyLines did not break lines")
	}
	if strings.ReplaceAll(s, "\n", "") != "<a><b>x</b></a>" {
		t.Error("prettyLines altered content")
	}
}

func TestChangeStats(t *testing.T) {
	report, err := ChangeStats(6_000, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if report.Versions != 3 || report.Ops.Total() == 0 {
		t.Fatalf("report = %+v", report)
	}
	if len(report.Labels) == 0 {
		t.Fatal("no label statistics")
	}
	var b strings.Builder
	report.WriteTable(&b)
	if !strings.Contains(b.String(), "rate") {
		t.Error("stats table missing")
	}
}
