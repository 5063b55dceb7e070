package lint

import (
	"go/ast"
)

// CtxHTTP keeps the long-running network services cancellable. The
// collector, notary service, TLS origin, interception proxy, passive tap,
// and the transport core under them all hold goroutines per connection; a
// dial or request without a timeout or context in those packages is a
// goroutine leak waiting for one unresponsive peer. Use
// net.DialTimeout, a net.Dialer with Timeout or DialContext, or an
// http.Client with Timeout instead.
var CtxHTTP = &Analyzer{
	Name: "ctxhttp",
	Doc:  "flag http.Get/net.Dial without timeout or context in long-running server packages",
	Run:  runCtxHTTP,
}

// ctxHTTPPackages are the long-running server packages, by base name.
var ctxHTTPPackages = map[string]bool{
	"collect":   true,
	"notarynet": true,
	"tlsnet":    true,
	"mitm":      true,
	"tap":       true,
	"wire":      true,
}

// ctxHTTPCallees block without a deadline: the package-level http helpers
// use the zero-timeout DefaultClient, and net.Dial has no bound at all.
var ctxHTTPCallees = map[string]string{
	"net/http.Get":      "use an http.Client with a Timeout or http.NewRequestWithContext",
	"net/http.Post":     "use an http.Client with a Timeout or http.NewRequestWithContext",
	"net/http.PostForm": "use an http.Client with a Timeout or http.NewRequestWithContext",
	"net/http.Head":     "use an http.Client with a Timeout or http.NewRequestWithContext",
	"net.Dial":          "use net.DialTimeout or a net.Dialer with Timeout/DialContext",
}

func runCtxHTTP(p *Pass) {
	if !ctxHTTPPackages[p.Pkg.Base()] {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := p.CalleeName(call)
			if fix, bad := ctxHTTPCallees[name]; bad {
				p.Reportf(call.Pos(), "%s has no timeout or context in a long-running server package; %s", name, fix)
			}
			return true
		})
	}
}
