package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"debugtuner/internal/ir"
	"debugtuner/internal/passes"
)

// stateFields sorts every field of the types a pass state is made of:
// the encoded ones (nil reason), and the ones stateEnc leaves out, each
// with its reason (see state.go).
var stateFields = map[reflect.Type]map[string]*string{
	reflect.TypeOf(ir.Value{}): {
		"Op": nil, "ID": nil, "Block": nil, "Args": nil, "AuxInt": nil,
		"Aux": nil, "Line": nil, "Var": nil,
	},
	reflect.TypeOf(ir.Block{}): {
		"ID": nil, "Instrs": nil, "Preds": nil, "Succs": nil, "Prob": nil, "Freq": nil,
		"Func": reason("back pointer to the owning function"),
	},
	reflect.TypeOf(ir.Func{}): {
		"Name": nil, "NParams": nil, "Blocks": nil, "NumSlots": nil,
		"SlotVars": nil, "ParamVars": nil, "Pure": nil, "StartLine": nil,
		"nextValueID": nil, "nextBlockID": nil,
		"Prog": reason("back pointer to the owning module"),
	},
	reflect.TypeOf(ir.Global{}): {
		"Name": nil, "Index": nil, "IsArray": nil, "Init": nil, "Sym": nil,
	},
	reflect.TypeOf(ir.Program{}): {
		"Funcs": nil, "Globals": nil, "MaxLine": nil,
		"Symbols": reason("sema's symbol table, shared by every clone"),
	},
	reflect.TypeOf(passes.Context{}): {
		"Prog": nil, "Salvage": nil, "InlineBudget": nil, "UnitAtATime": nil,
		"UnrollFactor": nil, "SampleMax": nil,
		"PassName":     reason("ledger attribution, set only while a pass runs"),
		"RunLabel":     reason("ledger attribution, set only while a pass runs"),
		"InlineOnce":   reason("inliner knob: compared only past the last inline entry"),
		"InlineSmall":  reason("inliner knob: compared only past the last inline entry"),
		"InlineGrowth": reason("inliner knob: compared only past the last inline entry"),
		"SampleLines":  reason("read-only FDO profile, the same for every toggle"),
	},
}

func reason(s string) *string { return &s }

// TestStateEncodesEveryField fails when a field of the module's types or
// of the pass context is neither encoded nor excluded with a reason, so
// a new field cannot slip past the fork set's state comparison. Each
// encoded scalar field must also move the encoding when perturbed.
func TestStateEncodesEveryField(t *testing.T) {
	for typ, fields := range stateFields {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := fields[typ.Field(i).Name]; !ok {
				t.Errorf("%s.%s is neither encoded in a pass state nor excluded with a reason", typ, typ.Field(i).Name)
			}
		}
		for name, why := range fields {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("%s.%s is listed but no longer exists", typ, name)
			}
			if why != nil && *why == "" {
				t.Errorf("%s.%s is excluded without a reason", typ, name)
			}
		}
	}

	var s suiteSubject
	for _, c := range loadSuite(t) {
		if len(c.ir0.Globals) > 0 {
			s = c
			break
		}
	}
	if s.ir0 == nil {
		t.Fatal("no suite subject has globals")
	}
	ctx := newContext(s.ir0.Clone(), MustConfig(GCC, "O2"))
	f := ctx.Prog.Funcs[0]
	blk := f.Blocks[0]
	var v *ir.Value
	for _, x := range blk.Instrs {
		if x.Var != nil || v == nil {
			v = x
		}
	}
	instances := map[reflect.Type]reflect.Value{
		reflect.TypeOf(ir.Value{}):       reflect.ValueOf(v).Elem(),
		reflect.TypeOf(ir.Block{}):       reflect.ValueOf(blk).Elem(),
		reflect.TypeOf(ir.Func{}):        reflect.ValueOf(f).Elem(),
		reflect.TypeOf(ir.Global{}):      reflect.ValueOf(ctx.Prog.Globals[0]).Elem(),
		reflect.TypeOf(ir.Program{}):     reflect.ValueOf(ctx.Prog).Elem(),
		reflect.TypeOf(passes.Context{}): reflect.ValueOf(ctx).Elem(),
	}
	var enc stateEnc
	base := bytes.Clone(enc.encode(ctx))
	for typ, fields := range stateFields {
		for name, why := range fields {
			fv := instances[typ].FieldByName(name)
			if why != nil || !fv.CanSet() {
				continue
			}
			old := reflect.ValueOf(fv.Interface())
			switch fv.Kind() {
			case reflect.Int, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			case reflect.String:
				fv.SetString(fv.String() + "x")
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 0.25)
			default:
				continue // pointers and slices: the structure itself
			}
			if bytes.Equal(enc.encode(ctx), base) {
				t.Errorf("perturbing %s.%s leaves the encoding unchanged", typ, name)
			}
			fv.Set(old)
		}
	}
	if !bytes.Equal(enc.encode(ctx), base) {
		t.Fatal("restoring every field did not restore the encoding")
	}
}
