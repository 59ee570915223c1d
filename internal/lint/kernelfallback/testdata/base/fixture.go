package fixtures

import (
	"repro/internal/expr"
	"repro/internal/types"
)

// A hotpath function that compiles an interpreter and never asks for a
// kernel loses the vectorized path silently.
func interpOnly(e expr.Expr, schema *types.Schema, rows []types.Row, n int) int {
	c := expr.MustCompile(e, schema) // want `never attempts kernel lowering`
	total := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		for _, r := range rows {
			if c.EvalBool(r) {
				total++
			}
		}
	}
	return total
}

// Attempting CompileKernel — even when the interpreter stays as the
// fallback — satisfies the contract.
func kernelWithFallbackOK(e expr.Expr, schema *types.Schema, rows []types.Row, n int) int {
	c := expr.MustCompile(e, schema)
	kern, err := expr.CompileKernel(e, schema)
	total := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		if kern != nil && err == nil {
			continue
		}
		for _, r := range rows {
			if c.EvalBool(r) {
				total++
			}
		}
	}
	return total
}

// Lowering via the (*expr.Compiled).Kernel method counts too.
func kernelMethodOK(e expr.Expr, schema *types.Schema, n int) int {
	c := expr.MustCompile(e, schema)
	if _, err := c.Kernel(schema); err != nil {
		return 0
	}
	total := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		total += v
	}
	return total
}

// No hotpath loop: interpreter-only compilation is not the analyzer's
// business.
func coldCompileOK(e expr.Expr, schema *types.Schema, row types.Row) bool {
	c, err := expr.Compile(e, schema)
	if err != nil {
		return false
	}
	return c.EvalBool(row)
}

// The audited escape hatch for loops that are interpreter-only by design.
func suppressedInterpOK(e expr.Expr, schema *types.Schema, rows []types.Row, n int) int {
	//mcdbr:kernelfallback ok(interpreter-only by design)
	c := expr.MustCompile(e, schema)
	total := 0
	//mcdbr:hotpath
	for v := 0; v < n; v++ {
		for _, r := range rows {
			if c.EvalBool(r) {
				total++
			}
		}
	}
	return total
}
