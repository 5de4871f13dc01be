package algebra

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"etlopt/internal/data"
)

// FuzzArithExact holds + - * on two ints to math/big: the result is the
// exact one when it fits in int64, and an error naming the expression
// exactly when it does not.
func FuzzArithExact(f *testing.F) {
	for _, seed := range [][2]int64{
		{0, 0}, {1<<53 + 1, 0}, {4611686018427387905, 4},
		{math.MaxInt64, 1}, {math.MinInt64, -1}, {-1, math.MinInt64}, {math.MinInt64, 1},
	} {
		f.Add(seed[0], seed[1])
	}
	exact := map[ArithOp]func(z, x, y *big.Int) *big.Int{
		Add: (*big.Int).Add, Sub: (*big.Int).Sub, Mul: (*big.Int).Mul,
	}
	f.Fuzz(func(t *testing.T, x, y int64) {
		for op, fn := range exact {
			e := Arith{Op: op, Left: Const{Value: data.NewInt(x)}, Right: Const{Value: data.NewInt(y)}}
			want := fn(new(big.Int), big.NewInt(x), big.NewInt(y))
			got, err := e.Eval(nil, nil)
			switch {
			case !want.IsInt64():
				if err == nil || !strings.Contains(err.Error(), e.String()) {
					t.Fatalf("%s = %v, %v; want an overflow error naming the expression (exact %s)", e, got, err, want)
				}
			case err != nil:
				t.Fatalf("%s: %v; want %s", e, err, want)
			case got.Kind() != data.KindInt || got.Int() != want.Int64():
				t.Fatalf("%s = %v (%v); want Int(%s)", e, got, got.Kind(), want)
			}
		}
	})
}
