package ast

import "fmt"

// Builder constructors. Programs are normally produced by the parser; the
// differential-testing generator (internal/difftest) instead assembles
// random well-typed programs directly as AST values and renders them back
// to source with Format, so every generated case is also a parser test.
// The constructors leave positions zero — Format output carries real
// positions once re-parsed.

// Bits returns a scalar bit[n] type.
func Bits(n int) Type { return Type{Bits: n} }

// BitsArray returns an array type bit[n][len].
func BitsArray(n, length int) Type { return Type{Bits: n, ArrayLen: length} }

// F returns a named field of scalar width bits (header fields, extern
// key/value tuples).
func F(bits int, name string) Field { return Field{Type: Bits(bits), Name: name} }

// NewHeaderType declares a header layout.
func NewHeaderType(name string, fields ...Field) *HeaderType {
	return &HeaderType{Name: name, Fields: fields}
}

// NewInstance binds a header type to an instance name.
func NewInstance(typeName, name string) *HeaderInstance {
	return &HeaderInstance{TypeName: typeName, Name: name}
}

// NewParserNode declares one parse-graph state extracting the given
// instances; sel may be nil for terminal states.
func NewParserNode(name string, extracts []string, sel *SelectStmt) *ParserNode {
	return &ParserNode{Name: name, Extracts: extracts, Select: sel}
}

// NewSelect builds a parser transition on key with the given cases;
// defaultNext == "" means accept.
func NewSelect(key Expr, defaultNext string, cases ...SelectCase) *SelectStmt {
	return &SelectStmt{Key: key, Cases: cases, Default: defaultNext}
}

// NewPipeline declares a one-big-pipeline running the named algorithms in
// order.
func NewPipeline(name string, algs ...string) *Pipeline {
	return &Pipeline{Name: name, Algorithms: algs}
}

// NewAlgorithm declares a deployable algorithm.
func NewAlgorithm(name string, body ...Stmt) *Algorithm {
	return &Algorithm{Name: name, Body: body}
}

// ---- Statements ----

// Set assigns rhs to lhs.
func Set(lhs, rhs Expr) *Assign { return &Assign{LHS: lhs, RHS: rhs} }

// IfThen builds a conditional without an else branch.
func IfThen(cond Expr, then ...Stmt) *If { return &If{Cond: cond, Then: then} }

// IfElse builds a conditional with both branches.
func IfElse(cond Expr, then, els []Stmt) *If { return &If{Cond: cond, Then: then, Else: els} }

// Global declares a global (stateful register) array.
func Global(t Type, name string) *VarDecl { return &VarDecl{Type: t, Name: name, Global: true} }

// Dict declares an extern dict<key, value>[size] table.
func Dict(key, value Field, size int, name string) *ExternDecl {
	return &ExternDecl{Kind: ExternDict, Keys: []Field{key}, Values: []Field{value}, Size: size, Name: name}
}

// List declares an extern list<key>[size] membership set.
func List(key Field, size int, name string) *ExternDecl {
	return &ExternDecl{Kind: ExternList, Keys: []Field{key}, Size: size, Name: name}
}

// Do wraps a call expression as a statement.
func Do(name string, args ...Expr) *ExprStmt {
	return &ExprStmt{X: &Call{Name: name, Args: args}}
}

// ---- Expressions ----

// ID references a variable by name.
func ID(name string) *Ident { return &Ident{Name: name} }

// Num is a decimal integer literal.
func Num(v uint64) *IntLit { return &IntLit{Value: v, Text: fmt.Sprintf("%d", v)} }

// Hex is a hexadecimal integer literal.
func Hex(v uint64) *IntLit { return &IntLit{Value: v, Text: fmt.Sprintf("0x%x", v)} }

// Fld accesses header instance field hdr.name.
func Fld(hdr, name string) *FieldAccess { return &FieldAccess{X: ID(hdr), Name: name} }

// Idx indexes an array or extern table.
func Idx(x, index Expr) *Index { return &Index{X: x, Index: index} }

// Bin applies a binary operator.
func Bin(op Op, x, y Expr) *Binary { return &Binary{Op: op, X: x, Y: y} }

// In tests key membership in an extern table.
func In(key Expr, table string) *InExpr { return &InExpr{Key: key, Table: table} }
