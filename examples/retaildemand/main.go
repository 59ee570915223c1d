// Command retaildemand models "customer order quantities under
// hypothetical price changes ... specified via Bayesian demand models" —
// the paper's second motivating workload. Each product's demand under a
// proposed price change is PoissonGamma (negative binomial): demand ~
// Poisson(lambda) with a Gamma prior on lambda whose mean shrinks with the
// price elasticity. Revenue risk is the LOWER tail of total revenue; the
// GROUP BY clause compares product categories with one conditioned query
// per group, as in the paper's Appendix A.
package main

import (
	"fmt"
	"log"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/mcdbr"
)

func buildProducts() *storage.Table {
	t := storage.NewTable("products", types.NewSchema(
		types.Column{Name: "pid", Kind: types.KindInt},
		types.Column{Name: "category", Kind: types.KindString},
		types.Column{Name: "price", Kind: types.KindFloat},
		types.Column{Name: "dshape", Kind: types.KindFloat},
		types.Column{Name: "dscale", Kind: types.KindFloat},
	))
	cats := []string{"grocery", "electronics", "apparel"}
	for i := 0; i < 45; i++ {
		cat := cats[i%3]
		price := 5 + float64(i%3)*45 + float64(i%7)
		// Posterior-predictive demand: mean shape*scale shrinks as price
		// rises (a crude constant-elasticity prior).
		shape := 4.0 + float64(i%5)
		scale := 60 / (shape * (1 + price/50))
		t.MustAppend(types.Row{
			types.NewInt(int64(i)),
			types.NewString(cat),
			types.NewFloat(price),
			types.NewFloat(shape),
			types.NewFloat(scale),
		})
	}
	return t
}

func main() {
	engine := mcdbr.New(mcdbr.WithSeed(314))
	engine.RegisterTable(buildProducts())

	// demand(pid, category, price, qty): qty ~ PoissonGamma(dshape, dscale).
	if _, err := engine.Exec(`
CREATE TABLE demand (pid, category, price, qty) AS
FOR EACH pid IN products
WITH q AS PoissonGamma(VALUES(dshape, dscale))
SELECT pid, category, price, q.* FROM q`); err != nil {
		log.Fatal(err)
	}

	// Unconditioned revenue distribution under the hypothetical prices.
	res, err := engine.Exec(`
SELECT SUM(qty * price) AS revenue
FROM demand
WITH RESULTDISTRIBUTION MONTECARLO(2000)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total revenue: mean=$%.0f sd=$%.0f\n", res.Dist.Mean(), res.Dist.Std())

	// Revenue at risk: the lower 1% tail.
	res, err = engine.ExecWithOptions(`
SELECT SUM(qty * price) AS revenue
FROM demand
WITH RESULTDISTRIBUTION MONTECARLO(100)
DOMAIN revenue <= QUANTILE(0.01)`, mcdbr.TailSampleOptions{TotalSamples: 500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("0.01-quantile of revenue (99%% revenue-at-risk): $%.0f\n", res.Tail.QuantileEstimate)
	fmt.Printf("expected revenue given that shortfall:          $%.0f\n", res.Tail.ExpectedShortfall)

	// Which category drives the downside? One conditioned query per group.
	res, err = engine.ExecWithOptions(`
SELECT SUM(qty * price) AS revenue
FROM demand
GROUP BY category
WITH RESULTDISTRIBUTION MONTECARLO(50)
DOMAIN revenue <= QUANTILE(0.05)`, mcdbr.TailSampleOptions{TotalSamples: 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-category 5% revenue-at-risk:")
	for _, g := range res.GroupedTail.Groups {
		fmt.Printf("  %-12s VaR $%.0f, shortfall $%.0f\n", g.KeyString(), g.Tail.QuantileEstimate, g.Tail.ExpectedShortfall)
	}
}
