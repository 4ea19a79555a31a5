#!/usr/bin/env python3
"""Re-measure the pinned regression constants on their full grids.

Prints each pinned check's observed maxima at full precision next to the
value it is allowed to reach (the pins in kloosterlab.checks, capped by
any analytic bound).  Run after any change to the sum evaluators; if a
measured maximum moves above its pin, either the change broke something
or the pin needs a deliberate, reviewed update.

Usage: python scripts/pin_constants.py
"""

from kloosterlab.checks import check_magnitudes, check_onediff


def main() -> int:
    ok = True
    for check in (check_magnitudes, check_onediff):
        r = check()
        ok &= r.ok
        print(f"{r.name}: {r.cells} cells")
        for key, value in r.observed.items():
            print(f"  {key}: observed {value!r}, allowed {r.allowed[key]!r}")
    print("all within pins" if ok else "PINS EXCEEDED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
