package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// MetricNameAnalyzer pins the observability surface's naming contract:
// dashboards and the load generator's assertions key on metric names, so a
// registration outside the poilabel_*/poiserve_* namespaces (or a counter
// without _total, a histogram without _seconds, an uppercase label) is a
// silent monitoring gap. It also catches typed sentinel errors compared
// with == instead of errors.Is — wrapped errors make == quietly wrong.
// Span names carry the same weight: the /debug/traces name filter, the
// per-span-name duration summaries, and the lifecycle docs all key on the
// answer./plan./fit./migrate./results. prefixes, so a span minted outside
// them (or with uppercase/undotted segments) vanishes from every view that
// matters.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc: "report metric registrations off the poilabel_*/poiserve_* naming " +
		"conventions, span names outside the answer./plan./fit./migrate./results. " +
		"lifecycles, and sentinel errors compared with == instead of errors.Is",
	Run: runMetricName,
}

// registryMethods classifies the metrics.Registry constructors by metric
// kind, which determines the suffix rule.
var registryMethods = map[string]string{
	"Counter": "counter", "CounterVec": "counter", "CounterFunc": "counter",
	"Gauge": "gauge", "GaugeFunc": "gauge", "GaugeVecFunc": "gauge",
	"Histogram": "histogram", "HistogramVec": "histogram",
}

var labelPattern = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func runMetricName(pass *Pass) error {
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkRegistration(pass, info, x)
				checkSpanName(pass, info, x)
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, info, x)
			}
			return true
		})
	}
	return nil
}

// checkRegistration validates one metrics.Registry constructor call.
func checkRegistration(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := callee(info, call)
	if fn == nil || recvTypeName(fn) != "Registry" {
		return
	}
	kind, ok := registryMethods[fn.Name()]
	if !ok || !strings.HasSuffix(funcPkgPath(fn), "internal/metrics") {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !strings.HasPrefix(name, "poilabel_") && !strings.HasPrefix(name, "poiserve_") {
		pass.Reportf(lit.Pos(), "metric %q is outside the poilabel_*/poiserve_* namespaces", name)
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "counter %q must end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") {
			pass.Reportf(lit.Pos(), "histogram %q must end in _seconds (durations are seconds, not ms)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "gauge %q must not end in _total: that suffix promises a monotonic counter", name)
		}
	}
	// Trailing string literals on the Vec constructors are label names
	// (GaugeVecFunc's fn argument is not a string literal, so the scan
	// skips it and lands on the variadic label names that follow).
	if strings.Contains(fn.Name(), "Vec") {
		for _, arg := range call.Args[2:] {
			llit, ok := ast.Unparen(arg).(*ast.BasicLit)
			if !ok || llit.Kind != token.STRING {
				continue
			}
			label, err := strconv.Unquote(llit.Value)
			if err != nil {
				continue
			}
			if !labelPattern.MatchString(label) {
				pass.Reportf(llit.Pos(), "label %q must be lower_snake_case", label)
			}
		}
	}
}

// spanNamePattern is the span naming contract: dotted lowercase segments
// under exactly the five instrumented lifecycles.
var spanNamePattern = regexp.MustCompile(`^(answer|plan|fit|migrate|results)(\.[a-z0-9_]+)+$`)

// checkSpanName validates the literal name argument of a span mint — the
// package-level trace.Start or the Tracer.StartRoot method of any package
// path ending internal/trace. Computed names are let through: the convention
// is about the literals instrumentation sites hard-code.
func checkSpanName(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := callee(info, call)
	if fn == nil || !strings.HasSuffix(funcPkgPath(fn), "internal/trace") {
		return
	}
	switch fn.Name() {
	case "Start":
		if recvTypeName(fn) != "" {
			return
		}
	case "StartRoot":
		if recvTypeName(fn) != "Tracer" {
			return
		}
	default:
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !spanNamePattern.MatchString(name) {
		pass.Reportf(lit.Pos(), "span name %q must be dotted lowercase under the answer./plan./fit./migrate./results. lifecycles", name)
	}
}

// checkSentinelCompare flags `err == ErrFoo` / `err != ErrFoo` where both
// sides are errors and one names a sentinel variable: wrapping breaks ==.
func checkSentinelCompare(pass *Pass, info *types.Info, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	isErr := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		return types.Implements(tv.Type, errorInterface) ||
			tv.Type.String() == "error"
	}
	sentinelName := func(e ast.Expr) string {
		var id *ast.Ident
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return ""
		}
		obj := info.Uses[id]
		if _, isVar := obj.(*types.Var); !isVar {
			return ""
		}
		if strings.HasPrefix(id.Name, "Err") || strings.HasPrefix(id.Name, "err") && len(id.Name) > 3 &&
			id.Name[3] >= 'A' && id.Name[3] <= 'Z' {
			return id.Name
		}
		return ""
	}
	if !isErr(be.X) || !isErr(be.Y) {
		return
	}
	name := sentinelName(be.X)
	if name == "" {
		name = sentinelName(be.Y)
	}
	if name != "" {
		pass.Reportf(be.OpPos, "sentinel error %s compared with %s: use errors.Is so wrapped errors still match", name, be.Op)
	}
}

// errorInterface is the predeclared error interface type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
