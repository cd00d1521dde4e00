package sem

import (
	"slices"
	"strings"
	"sync"

	"semnids/templates"
)

// builtin is templates/builtin.tpl, embedded in the binary and parsed
// once.
var builtin = sync.OnceValue(func() []*Template {
	tpls, err := ParseTemplates(strings.NewReader(templates.Builtin))
	if err != nil {
		panic("sem: templates/builtin.tpl: " + err.Error())
	}
	return tpls
})

// BuiltinTemplates returns the template set evaluated in the paper
// (templates/builtin.tpl): decryption loops (both schemes), Linux
// shell spawning with the port-binding extension, and the Code Red II
// vector. Every call returns templates of its own, not yet compiled.
func BuiltinTemplates() []*Template {
	out := make([]*Template, len(builtin()))
	for i, t := range builtin() {
		out[i] = &Template{Name: t.Name, Description: t.Description, Severity: t.Severity, Stmts: slices.Clone(t.Stmts)}
	}
	return out
}

// XorOnlyTemplates is the template set the paper used for the *first*
// ADMmutate experiment (Table 2, 68% detection): the built-in set
// without the alternate mov/or/and/not decoder.
func XorOnlyTemplates() []*Template {
	return slices.DeleteFunc(BuiltinTemplates(), func(t *Template) bool {
		return t.Name == "admmutate-alt-decode-loop"
	})
}
