// Package templates embeds builtin.tpl, the built-in template set in
// the template DSL, for internal/sem to parse.
package templates

import _ "embed"

// Builtin is the text of builtin.tpl.
//
//go:embed builtin.tpl
var Builtin string
