package bench

import (
	"strings"
	"testing"
)

func TestFig4SmallSweep(t *testing.T) {
	points, err := fig4([]int{2_000, 8_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.bytes <= 0 || p.nodes <= 0 || p.total <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	if points[1].nodes <= points[0].nodes {
		t.Error("sweep not increasing in size")
	}
	var b strings.Builder
	printFig4(&b, points)
	if !strings.Contains(b.String(), "Figure 4") {
		t.Error("PrintFig4 header missing")
	}
}

func TestFig5Sweep(t *testing.T) {
	points, err := fig5(10_000, []float64{0.02, 0.20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.perfectBytes <= 0 || p.computedBytes <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		if p.ratio <= 0 || p.ratio > 10 {
			t.Errorf("implausible quality ratio %+v", p)
		}
	}
	var b strings.Builder
	printFig5(&b, points)
	if !strings.Contains(b.String(), "Figure 5") {
		t.Error("PrintFig5 header missing")
	}
}

func TestFig6Corpus(t *testing.T) {
	points, sum, err := fig6(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.docs == 0 || len(points) == 0 {
		t.Fatalf("no measurements: %+v", sum)
	}
	if sum.meanRatio <= 0 {
		t.Errorf("mean ratio = %f", sum.meanRatio)
	}
	var b strings.Builder
	printFig6(&b, points, sum)
	if !strings.Contains(b.String(), "mean ratio") {
		t.Error("PrintFig6 summary missing")
	}
}

func TestSiteExperiment(t *testing.T) {
	r, err := site(150, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.docBytes <= 0 || r.deltaSize <= 0 || r.totalTime <= 0 {
		t.Errorf("degenerate site result %+v", r)
	}
	if r.coreTime > r.totalTime {
		t.Errorf("core time exceeds total: %+v", r)
	}
	var b strings.Builder
	printSite(&b, r)
	if !strings.Contains(b.String(), "pages=150") {
		t.Error("PrintSite output missing fields")
	}
}

func TestBaselinesComparison(t *testing.T) {
	points, err := baselines([]int{60, 150}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.buld <= 0 || p.luSelkow <= 0 || p.laDiff <= 0 || p.diffMK <= 0 {
			t.Errorf("missing timing in %+v", p)
		}
		if p.buldSize <= 0 || p.luSize <= 0 || p.laSize <= 0 {
			t.Errorf("missing delta size in %+v", p)
		}
	}
	var b strings.Builder
	printBaselines(&b, points)
	if !strings.Contains(b.String(), "buld(us)") {
		t.Error("PrintBaselines header missing")
	}
}

func TestMovesSweep(t *testing.T) {
	points, err := moves(8_000, []float64{0.0, 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].perfectMoves != 0 {
		t.Errorf("moveProb=0 produced %d perfect moves", points[0].perfectMoves)
	}
	if points[1].perfectMoves == 0 {
		t.Error("moveProb=0.5 produced no moves")
	}
	var b strings.Builder
	printMoves(&b, points)
	if !strings.Contains(b.String(), "moveProb") {
		t.Error("PrintMoves header missing")
	}
}

func TestAblationsRun(t *testing.T) {
	points, err := ablations(6_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("ablation configs = %d", len(points))
	}
	names := map[string]bool{}
	for _, p := range points {
		if p.time <= 0 || p.deltaSize <= 0 {
			t.Errorf("degenerate ablation %+v", p)
		}
		names[p.name] = true
	}
	if !names["paper-default"] || !names["eager-down"] {
		t.Errorf("missing expected configs: %v", names)
	}
	var b strings.Builder
	printAblations(&b, points)
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
