package metrics

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestComputeSearchEfficiency(t *testing.T) {
	cases := []struct {
		name  string
		hits  int
		evals []int
		want  SearchEfficiency
	}{
		{"empty", 0, nil, SearchEfficiency{}},
		{"serial-no-hits", 0, []int{10}, SearchEfficiency{Evaluations: 10, HitRate: 0, WorkerBalance: 1}},
		{"half-hits", 5, []int{5}, SearchEfficiency{Evaluations: 5, HitRate: 0.5, WorkerBalance: 1}},
		{"balanced-pool", 0, []int{2, 2, 2, 2}, SearchEfficiency{Evaluations: 8, HitRate: 0, WorkerBalance: 1}},
		{"skewed-pool", 0, []int{4, 0, 0, 0}, SearchEfficiency{Evaluations: 4, HitRate: 0, WorkerBalance: 0.25}},
		{"all-hits", 7, []int{0}, SearchEfficiency{Evaluations: 0, HitRate: 1, WorkerBalance: 0}},
	}
	for _, c := range cases {
		got := ComputeSearchEfficiency(c.hits, c.evals)
		if got.Evaluations != c.want.Evaluations || !almost(got.HitRate, c.want.HitRate) || !almost(got.WorkerBalance, c.want.WorkerBalance) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestComputeTemperingEfficiency(t *testing.T) {
	cases := []struct {
		name                                string
		attempts, exchanges, iters, r, maxI int
		want                                TemperingEfficiency
	}{
		{"single-chain", 0, 0, 200, 1, 200, TemperingEfficiency{ExchangeRate: 0, BudgetUsed: 1}},
		{"half-accepted", 10, 5, 400, 4, 100, TemperingEfficiency{ExchangeRate: 0.5, BudgetUsed: 1}},
		{"early-exit", 8, 8, 120, 4, 100, TemperingEfficiency{ExchangeRate: 1, BudgetUsed: 0.3}},
		{"empty", 0, 0, 0, 0, 0, TemperingEfficiency{}},
		{"over-budget-clamped", 4, 1, 500, 2, 100, TemperingEfficiency{ExchangeRate: 0.25, BudgetUsed: 1}},
	}
	for _, c := range cases {
		got := ComputeTemperingEfficiency(c.attempts, c.exchanges, c.iters, c.r, c.maxI)
		if !almost(got.ExchangeRate, c.want.ExchangeRate) || !almost(got.BudgetUsed, c.want.BudgetUsed) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
