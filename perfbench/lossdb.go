package main

import (
	"fmt"
	"math"

	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/mcdbr"
)

// lossDB is the generated loss database behind mc-grouped and serve-mix:
// deterministic regions and accounts tables and a Normal loss table with
// one random row per account, defined by CREATE TABLE ... FOR EACH.
type lossDB struct {
	regions, accounts, params *storage.Table
	mu, variance              []float64 // per account
	region                    []int     // per account
	active                    []bool    // per account
	nRegions                  int
}

// createLosses defines the random loss table: val ~ Normal(mu, lvar) for
// each account.
const createLosses = `CREATE TABLE Losses (acct, val) AS FOR EACH acct IN lossparams WITH v AS Normal(VALUES(mu, lvar)) SELECT acct, v.* FROM v`

func regionName(r int) string { return fmt.Sprintf("region_%02d", r) }

// newLossDB draws nAcct accounts over nRegions regions from seed. Means
// lie in [1, 10) and variances in [0.5, 4), so every group total is
// positive with overwhelming margin.
func newLossDB(seed uint64, nAcct, nRegions int) *lossDB {
	r := prng.NewSub(seed)
	db := &lossDB{
		regions: storage.NewTable("regions", types.NewSchema(
			types.Column{Name: "r_id", Kind: types.KindInt},
			types.Column{Name: "r_name", Kind: types.KindString},
		)),
		accounts: storage.NewTable("accounts", types.NewSchema(
			types.Column{Name: "a_id", Kind: types.KindInt},
			types.Column{Name: "a_region", Kind: types.KindInt},
			types.Column{Name: "a_active", Kind: types.KindInt},
		)),
		params: storage.NewTable("lossparams", types.NewSchema(
			types.Column{Name: "acct", Kind: types.KindInt},
			types.Column{Name: "mu", Kind: types.KindFloat},
			types.Column{Name: "lvar", Kind: types.KindFloat},
		)),
		nRegions: nRegions,
	}
	for i := 0; i < nRegions; i++ {
		db.regions.MustAppend(types.Row{types.NewInt(int64(i)), types.NewString(regionName(i))})
	}
	for i := 0; i < nAcct; i++ {
		mu := 1 + 9*r.Float64()
		v := 0.5 + 3.5*r.Float64()
		reg := r.Intn(nRegions)
		act := r.Float64() < 0.7
		db.mu = append(db.mu, mu)
		db.variance = append(db.variance, v)
		db.region = append(db.region, reg)
		db.active = append(db.active, act)
		a := int64(0)
		if act {
			a = 1
		}
		db.accounts.MustAppend(types.Row{types.NewInt(int64(i)), types.NewInt(int64(reg)), types.NewInt(a)})
		db.params.MustAppend(types.Row{types.NewInt(int64(i)), types.NewFloat(mu), types.NewFloat(v)})
	}
	return db
}

// register loads the tables into e and defines Losses.
func (db *lossDB) register(e *mcdbr.Engine) error {
	e.RegisterTable(db.regions)
	e.RegisterTable(db.accounts)
	e.RegisterTable(db.params)
	if _, err := e.Exec(createLosses); err != nil {
		return fmt.Errorf("defining Losses: %w", err)
	}
	return nil
}

// moments is the analytic mean and variance of a sum of independent
// Normal losses, with the number of terms.
type moments struct {
	mean, variance float64
	count          int
}

// byRegion is the analytic SUM(val) per region.
func (db *lossDB) byRegion() map[string]moments {
	out := map[string]moments{}
	for i := range db.mu {
		k := regionName(db.region[i])
		m := out[k]
		m.mean += db.mu[i]
		m.variance += db.variance[i]
		m.count++
		out[k] = m
	}
	return out
}

// where is the analytic SUM(val) over the accounts keep selects.
func (db *lossDB) where(keep func(i int) bool) moments {
	var m moments
	for i := range db.mu {
		if keep(i) {
			m.mean += db.mu[i]
			m.variance += db.variance[i]
			m.count++
		}
	}
	return m
}

// se is the standard error of the mean of n draws of a sum with these
// moments.
func (m moments) se(n int) float64 { return math.Sqrt(m.variance / float64(n)) }
