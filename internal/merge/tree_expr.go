package merge

import (
	"fmt"
	"strings"
)

// The canonical tree grammar is the one Tree.String emits:
//
//	node  := ("S" | "C") [arity] "(" input ("," input)* ")"
//	input := node | "T" port
//
// An arity digit string marks a parallel node ("C3(...)"); it is only
// defined for CSMT and must match the node's input count. Leaf ports
// must cover 0..n-1 exactly once. Whitespace between tokens is allowed
// on input (it is never emitted).

// IsTreeExpr reports whether name is written in the canonical tree
// grammar rather than as a paper scheme name: tree expressions always
// contain a parenthesis, paper names never do.
func IsTreeExpr(name string) bool { return strings.ContainsRune(name, '(') }

// ParseTreeExpr parses a canonical tree expression such as
// "C(S(T0,T1),T2,T3)" into a scheme. The result's name is the
// normalised rendering, so ParseTreeExpr(t.String()).String() ==
// t.String() for every tree t.
func ParseTreeExpr(expr string) (*Tree, error) {
	p := &exprParser{src: expr}
	root, err := p.node()
	if err != nil {
		return nil, fmt.Errorf("merge: tree expression %q: %w", expr, err)
	}
	p.space()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("merge: tree expression %q: trailing input at offset %d", expr, p.pos)
	}
	t, err := treeFromNode(root)
	if err != nil {
		return nil, fmt.Errorf("merge: tree expression %q: %w", expr, err)
	}
	return t, nil
}

// treeFromNode builds a scheme from an explicit node tree, named by its
// canonical rendering, deriving the port count from the highest leaf
// port; NewTree then validates that ports 0..max appear exactly once.
func treeFromNode(root *Node) (*Tree, error) {
	max := -1
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("merge: nil node in tree")
		}
		for _, in := range n.Inputs {
			if in.Node != nil {
				if err := walk(in.Node); err != nil {
					return err
				}
				continue
			}
			if in.Port > max {
				max = in.Port
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return NewTree(renderNode(root), root, max+1)
}

// maxExprDepth bounds parser recursion. Every node needs at least two
// inputs, so a legal tree over MaxPorts leaves can never nest deeper
// than MaxPorts - 1; the cap only rejects pathological input early.
const maxExprDepth = MaxPorts

type exprParser struct {
	src   string
	pos   int
	depth int
}

func (p *exprParser) space() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() (byte, bool) {
	p.space()
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *exprParser) expect(c byte) error {
	got, ok := p.peek()
	if !ok {
		return fmt.Errorf("want %q at offset %d, got end of input", c, p.pos)
	}
	if got != c {
		return fmt.Errorf("want %q at offset %d, got %q", c, p.pos, got)
	}
	p.pos++
	return nil
}

// number consumes a digit run. Values are capped well above any legal
// port or arity so a pathological input cannot overflow or force a
// huge allocation downstream.
func (p *exprParser) number() (int, bool, error) {
	start := p.pos
	n := 0
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		n = n*10 + int(p.src[p.pos]-'0')
		if n > MaxPorts {
			return 0, false, fmt.Errorf("number at offset %d exceeds %d", start, MaxPorts)
		}
		p.pos++
	}
	return n, p.pos > start, nil
}

func (p *exprParser) node() (*Node, error) {
	if p.depth++; p.depth > maxExprDepth {
		return nil, fmt.Errorf("tree nested deeper than %d levels", maxExprDepth)
	}
	defer func() { p.depth-- }()
	c, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("want a node at offset %d, got end of input", p.pos)
	}
	var kind Kind
	switch c {
	case 'S':
		kind = SMT
	case 'C':
		kind = CSMT
	default:
		return nil, fmt.Errorf("want node kind S or C at offset %d, got %q", p.pos, c)
	}
	p.pos++
	arity, hasArity, err := p.number()
	if err != nil {
		return nil, err
	}
	if hasArity {
		if kind != CSMT {
			return nil, fmt.Errorf("parallel multi-input merging is only defined for CSMT")
		}
		if arity < 2 {
			return nil, fmt.Errorf("parallel node arity %d too small", arity)
		}
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	n := &Node{Kind: kind, Parallel: hasArity}
	for {
		in, err := p.input()
		if err != nil {
			return nil, err
		}
		n.Inputs = append(n.Inputs, in)
		c, ok := p.peek()
		if !ok {
			return nil, fmt.Errorf("unclosed node at offset %d", p.pos)
		}
		if c == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if hasArity && arity != len(n.Inputs) {
		return nil, fmt.Errorf("parallel node declares %d inputs but lists %d", arity, len(n.Inputs))
	}
	return n, nil
}

func (p *exprParser) input() (Input, error) {
	c, ok := p.peek()
	if !ok {
		return Input{}, fmt.Errorf("want an input at offset %d, got end of input", p.pos)
	}
	if c == 'T' {
		p.pos++
		port, has, err := p.number()
		if err != nil {
			return Input{}, err
		}
		if !has {
			return Input{}, fmt.Errorf("want a port number at offset %d", p.pos)
		}
		return Leaf(port), nil
	}
	n, err := p.node()
	if err != nil {
		return Input{}, err
	}
	return Sub(n), nil
}

// SplitNames breaks a comma-separated scheme-name list, leaving commas
// inside parentheses alone so tree expressions like C(S(T0,T1),T2,T3)
// stay whole. It is the one splitter every CLI -schemes/-mixes flag
// shares, so the list grammar cannot drift between commands.
func SplitNames(s string) []string {
	var parts []string
	depth, start := 0, 0
	emit := func(end int) {
		if p := strings.TrimSpace(s[start:end]); p != "" {
			parts = append(parts, p)
		}
	}
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				emit(i)
				start = i + 1
			}
		}
	}
	emit(len(s))
	return parts
}
