package algebra

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"etlopt/internal/data"
)

// Func is a deterministic scalar data-manipulation function — the construct
// whose presence, per the paper's introduction, blocks traditional algebraic
// optimization and motivates the whole framework.
type Func interface {
	// Name returns the function's registered name (e.g. "dollar2euro").
	Name() string
	// Arity returns the number of arguments the function takes.
	Arity() int
	// Apply computes the result. NULL inputs propagate as NULL unless the
	// function documents otherwise.
	Apply(args []data.Value) (data.Value, error)
}

// funcImpl adapts a closure to Func.
type funcImpl struct {
	name      string
	arity     int
	bijective bool
	apply     func(args []data.Value) (data.Value, error)
}

func (f funcImpl) Name() string { return f.name }
func (f funcImpl) Arity() int   { return f.arity }
func (f funcImpl) Apply(args []data.Value) (data.Value, error) {
	if len(args) != f.arity {
		return data.Null, fmt.Errorf("algebra: %s expects %d args, got %d", f.name, f.arity, len(args))
	}
	return f.apply(args)
}

var (
	funcMu    sync.RWMutex
	registry  = map[string]Func{}
	bijective = map[string]bool{}
)

// RegisterFunc adds a function to the global registry. Registering a name
// twice is an error, keeping template semantics unambiguous (§3.4: fixed
// semantics per predicate name). isBijective declares that the function is
// a bijection on its input domain; the optimizer relies on this to swap
// in-place transformations across grouping and duplicate-sensitive
// activities (the paper's A2E ↔ aggregation swap is legal exactly because
// the date reformat is a bijection on dates).
func RegisterFunc(f Func, isBijective bool) error {
	funcMu.Lock()
	defer funcMu.Unlock()
	if _, dup := registry[f.Name()]; dup {
		return fmt.Errorf("algebra: function %q already registered", f.Name())
	}
	registry[f.Name()] = f
	bijective[f.Name()] = isBijective
	return nil
}

// MustRegisterFunc registers a closure-backed non-bijective function and
// panics on duplicates; intended for init-time registration.
func MustRegisterFunc(name string, arity int, apply func(args []data.Value) (data.Value, error)) {
	if err := RegisterFunc(funcImpl{name: name, arity: arity, apply: apply}, false); err != nil {
		panic(err)
	}
}

// MustRegisterBijectiveFunc registers a closure-backed bijective function
// and panics on duplicates.
func MustRegisterBijectiveFunc(name string, arity int, apply func(args []data.Value) (data.Value, error)) {
	if err := RegisterFunc(funcImpl{name: name, arity: arity, bijective: true, apply: apply}, true); err != nil {
		panic(err)
	}
}

// LookupFunc finds a registered function by name.
func LookupFunc(name string) (Func, bool) {
	funcMu.RLock()
	defer funcMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// IsBijective reports whether the named function was registered as a
// bijection. Unknown functions report false (the conservative answer).
func IsBijective(name string) bool {
	funcMu.RLock()
	defer funcMu.RUnlock()
	return bijective[name]
}

// FuncNames returns the sorted names of all registered functions.
func FuncNames() []string {
	funcMu.RLock()
	defer funcMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DollarEuroRate is the fixed conversion rate used by the built-in
// dollar2euro function. The paper's $2€ is any deterministic conversion;
// a fixed rate keeps workflows reproducible.
const DollarEuroRate = 0.9

// swapDateFields exchanges the first two of a date string's three
// "/"-separated fields: one concatenation and no field slice, since the
// reformats run once per row. Exactly two "/" are accepted, as
// strings.Split(s, "/") yielding three parts was.
func swapDateFields(fn, format, s string) (data.Value, error) {
	i := strings.IndexByte(s, '/')
	j := -1
	if i >= 0 {
		j = strings.IndexByte(s[i+1:], '/')
	}
	if j < 0 || strings.IndexByte(s[i+j+2:], '/') >= 0 {
		return data.Null, fmt.Errorf("%s: %q is not %s", fn, s, format)
	}
	j += i + 1
	return data.NewString(s[i+1:j] + "/" + s[:i] + s[j:]), nil
}

func init() {
	// dollar2euro implements the paper's $2€ transformation: Dollar costs
	// become Euro costs. The attribute it produces is a *different*
	// real-world entity from its input (hence a new reference name in Ωn).
	MustRegisterBijectiveFunc("dollar2euro", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		if v.IsNull() {
			return data.Null, nil
		}
		if !v.IsNumeric() {
			return data.Null, fmt.Errorf("dollar2euro: non-numeric input %v", v)
		}
		return data.NewFloat(v.Float() * DollarEuroRate), nil
	})

	// euro2dollar is the inverse conversion.
	MustRegisterBijectiveFunc("euro2dollar", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		if v.IsNull() {
			return data.Null, nil
		}
		if !v.IsNumeric() {
			return data.Null, fmt.Errorf("euro2dollar: non-numeric input %v", v)
		}
		return data.NewFloat(v.Float() / DollarEuroRate), nil
	})

	// a2edate implements the paper's A2E transformation: American-format
	// date strings (MM/DD/YYYY) become European-format (DD/MM/YYYY).
	// Crucially the output denotes the *same* real-world entity (a date
	// used as a grouper, §3.1), so a2edate activities keep the reference
	// name of their input — this is what legalizes swapping the aggregation
	// before A2E in Fig. 2. Date-typed values pass through unchanged, since
	// they carry no format.
	MustRegisterBijectiveFunc("a2edate", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		switch v.Kind() {
		case data.KindNull, data.KindDate:
			return v, nil
		case data.KindString:
			return swapDateFields("a2edate", "MM/DD/YYYY", v.Str())
		default:
			return data.Null, fmt.Errorf("a2edate: unsupported kind %s", v.Kind())
		}
	})

	// e2adate is the inverse reformat (DD/MM/YYYY -> MM/DD/YYYY).
	MustRegisterBijectiveFunc("e2adate", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		switch v.Kind() {
		case data.KindNull, data.KindDate:
			return v, nil
		case data.KindString:
			return swapDateFields("e2adate", "DD/MM/YYYY", v.Str())
		default:
			return data.Null, fmt.Errorf("e2adate: unsupported kind %s", v.Kind())
		}
	})

	// upper and lower are cleaning helpers common in ETL template libraries.
	MustRegisterFunc("upper", 1, func(args []data.Value) (data.Value, error) {
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.NewString(strings.ToUpper(args[0].Str())), nil
	})
	MustRegisterFunc("lower", 1, func(args []data.Value) (data.Value, error) {
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.NewString(strings.ToLower(args[0].Str())), nil
	})

	// trim strips surrounding whitespace.
	MustRegisterFunc("trim", 1, func(args []data.Value) (data.Value, error) {
		if args[0].IsNull() {
			return data.Null, nil
		}
		return data.NewString(strings.TrimSpace(args[0].Str())), nil
	})

	// concat joins two strings.
	MustRegisterFunc("concat", 2, func(args []data.Value) (data.Value, error) {
		if args[0].IsNull() || args[1].IsNull() {
			return data.Null, nil
		}
		return data.NewString(args[0].Str() + args[1].Str()), nil
	})

	// round rounds a numeric to the nearest integer.
	MustRegisterFunc("round", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		if v.IsNull() {
			return data.Null, nil
		}
		if !v.IsNumeric() {
			return data.Null, fmt.Errorf("round: non-numeric input %v", v)
		}
		f := v.Float()
		if f >= 0 {
			return data.NewInt(int64(f + 0.5)), nil
		}
		return data.NewInt(int64(f - 0.5)), nil
	})

	// scale multiplies a numeric by a constant factor; a generic stand-in
	// for unit conversions in generated workloads.
	MustRegisterBijectiveFunc("scale10", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		if v.IsNull() {
			return data.Null, nil
		}
		if !v.IsNumeric() {
			return data.Null, fmt.Errorf("scale10: non-numeric input %v", v)
		}
		return data.NewFloat(v.Float() * 10), nil
	})

	// monthof extracts the month key (YYYY-MM) from a date, used by the
	// monthly-aggregation flows of Fig. 1.
	MustRegisterFunc("monthof", 1, func(args []data.Value) (data.Value, error) {
		v := args[0]
		switch v.Kind() {
		case data.KindNull:
			return data.Null, nil
		case data.KindDate:
			return data.NewString(v.Time().Format("2006-01")), nil
		case data.KindString:
			s := v.Str()
			if len(s) >= 7 && s[4] == '-' {
				return data.NewString(s[:7]), nil
			}
			return data.Null, fmt.Errorf("monthof: %q is not an ISO date", s)
		default:
			return data.Null, fmt.Errorf("monthof: unsupported kind %s", v.Kind())
		}
	})
}
