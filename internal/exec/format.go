package exec

import (
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
)

// Children implements Node for every operator; EXPLAIN uses it to render
// the physical tree.

func (s *Scan) Children() []Node        { return nil }
func (s *Seed) Children() []Node        { return []Node{s.Child} }
func (n *Instantiate) Children() []Node { return []Node{n.Child} }
func (n *Select) Children() []Node      { return []Node{n.Child} }
func (n *Project) Children() []Node     { return []Node{n.Child} }
func (n *HashJoin) Children() []Node    { return []Node{n.Left, n.Right} }
func (n *Cross) Children() []Node       { return []Node{n.Left, n.Right} }
func (n *Split) Children() []Node       { return []Node{n.Child} }
func (n *Rename) Children() []Node      { return []Node{n.Child} }

// FormatPlan renders the operator tree as an indented listing, one node
// per line, marking deterministic (materialization-cached) subtrees and
// each operator's streaming mode in the pull-based batch pipeline.
func FormatPlan(root Node) string {
	var b strings.Builder
	formatInto(&b, root, 0)
	return b.String()
}

// streamMode names how an operator participates in the batch pipeline
// (DESIGN.md §9): "stream" operators forward one batch at a time,
// "build+stream" operators buffer one input side at Open and stream the
// other, and "sink" operators consume their whole input before producing.
func streamMode(n Node) string {
	switch n.(type) {
	case *Materialize, *Aggregate:
		return "sink"
	case *HashJoin, *Cross:
		return "build+stream"
	default:
		return "stream"
	}
}

// kernelCompiles reports whether e lowers to a vectorized kernel against
// schema (nil expressions trivially do).
func kernelCompiles(e expr.Expr, schema *types.Schema) bool {
	if e == nil {
		return true
	}
	_, err := expr.CompileKernel(e, schema)
	return err == nil
}

// vectorized reports whether the operator takes a kernel path at runtime
// (DESIGN.md §13): Select when its predicate lowers, HashJoin always
// (probe hashes are computed batch-at-a-time), Aggregate when it has no
// HAVING (whose per-version predicate over the output row is interpreted)
// and every aggregate input lowers to a numeric kernel.
func vectorized(n Node) bool {
	switch op := n.(type) {
	case *Select:
		return kernelCompiles(op.Pred, op.Child.Schema())
	case *HashJoin:
		return true
	case *Aggregate:
		if op.Having != nil {
			return false
		}
		schema := op.Child.Schema()
		for _, a := range op.Aggs {
			if a.Expr == nil {
				continue
			}
			k, err := expr.CompileKernel(a.Expr, schema)
			if err != nil || k.Kind() == types.KindString {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func formatInto(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.String())
	if n.Deterministic() {
		b.WriteString(" [det]")
	}
	b.WriteString(" [")
	b.WriteString(streamMode(n))
	b.WriteString("]")
	if vectorized(n) {
		b.WriteString(" [vectorized=true]")
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		formatInto(b, c, depth+1)
	}
}
