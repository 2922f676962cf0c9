package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a scalar expression node.
type Expr interface {
	exprNode()
	String() string
}

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table  string // alias or table name; "" if unqualified
	Column string
	// Pos is the 1-based byte offset of the reference in the source text;
	// 0 for programmatically built nodes. It feeds UnsupportedError
	// diagnostics and never participates in String or equality semantics.
	Pos int
}

func (*ColumnRef) exprNode() {}

// String renders the reference as it was written.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

func (*IntLit) exprNode() {}

// String renders the literal.
func (l *IntLit) String() string { return fmt.Sprintf("%d", l.V) }

// FloatLit is a floating-point literal.
type FloatLit struct{ V float64 }

func (*FloatLit) exprNode() {}

// String renders the literal in the only float form the lexer reads:
// plain digits with one decimal point, never an exponent, so the text
// re-parses to the same FloatLit.
func (l *FloatLit) String() string {
	s := strconv.FormatFloat(l.V, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// StringLit is a string literal.
type StringLit struct{ V string }

func (*StringLit) exprNode() {}

// String renders the literal in SQL quoting.
func (l *StringLit) String() string { return "'" + strings.ReplaceAll(l.V, "'", "''") + "'" }

// BinaryExpr is an arithmetic or comparison expression.
type BinaryExpr struct {
	Op          string // one of + - * / = <> < <= > >=
	Left, Right Expr
}

func (*BinaryExpr) exprNode() {}

// String renders the expression; arithmetic is parenthesized explicitly,
// comparisons print bare (they only occur as top-level WHERE conjuncts,
// where the parser does not accept parentheses).
func (b *BinaryExpr) String() string {
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return b.Left.String() + " " + b.Op + " " + b.Right.String()
	}
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// AggFunc names an aggregate function.
type AggFunc string

// Supported aggregate functions.
const (
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggSum   AggFunc = "SUM"
	AggCount AggFunc = "COUNT"
	AggAvg   AggFunc = "AVG"
)

// AggExpr is an aggregate function application. Arg is nil for COUNT(*).
type AggExpr struct {
	Func AggFunc
	Arg  Expr
	// Pos is the 1-based byte offset of the function keyword; 0 for
	// programmatically built nodes.
	Pos int
}

func (*AggExpr) exprNode() {}

// String renders the aggregate call.
func (a *AggExpr) String() string {
	if a.Arg == nil {
		return string(a.Func) + "(*)"
	}
	return string(a.Func) + "(" + a.Arg.String() + ")"
}

// SelectItem is one output column of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // "" if none
}

// TableRef is one entry of the FROM clause.
type TableRef struct {
	Table string
	Alias string // equals Table when no alias given
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr *ColumnRef
	Desc bool
}

// Select is a parsed single-block query.
type Select struct {
	Items   []SelectItem
	From    []TableRef
	Where   []Expr // conjuncts; each is a comparison BinaryExpr
	GroupBy []*ColumnRef
	OrderBy []OrderItem
	// Limit caps the result size; nil means no limit. (A pointer keeps
	// the zero Select meaning "no limit", which programmatic AST
	// construction relies on.)
	Limit *int64
	// OrderByPos and LimitPos are the 1-based byte offsets of the ORDER
	// and LIMIT keywords; 0 when the clause is absent or programmatic.
	// They let the IVM front end point its "not maintainable"
	// diagnostics at the offending clause.
	OrderByPos int
	LimitPos   int
}

// String reassembles a canonical form of the query.
func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tr.Table)
		if tr.Alias != tr.Table {
			sb.WriteString(" AS " + tr.Alias)
		}
	}
	if len(s.Where) > 0 {
		sb.WriteString(" WHERE ")
		for i, w := range s.Where {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(w.String())
		}
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&sb, " LIMIT %d", *s.Limit)
	}
	return sb.String()
}

// HasAggregates reports whether any select item contains an aggregate.
func (s *Select) HasAggregates() bool {
	for _, it := range s.Items {
		if exprHasAgg(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAgg(e Expr) bool {
	switch x := e.(type) {
	case *AggExpr:
		return true
	case *BinaryExpr:
		return exprHasAgg(x.Left) || exprHasAgg(x.Right)
	}
	return false
}
