"""Spans around gcube's public functions, recorded from outside the package.

Each site wraps a function under the name where its caller looks it up
(a module attribute, or an entry of a dispatch dict built at import time),
so the program runs unchanged apart from the wrapper call.  A span is
[name, start, end, parent index]; spans stay in memory and the pass writes
them out when it ends.
"""

import importlib
import time

# (span name, module, attribute[, dict key]).  A site whose attribute no
# longer exists is skipped and reported, so the untraced benchmark keeps
# working when the program is refactored.
SITES = [
    ("cli.main", "gcube.cli", "main"),
    ("solver.solve_exponent", "gcube.cli", "solve_exponent"),
    ("solver.max_objective", "gcube.solver", "max_objective"),
    ("terms.term_groups", "gcube.solver", "term_groups"),
    ("terms.term_groups", "gcube.terms", "term_groups"),
    ("terms.term_groups", "gcube.verify", "term_groups"),
    ("terms.objective", "gcube.solver", "objective"),
    ("terms.objective", "gcube.verify", "objective"),
    ("gowers.gowers_norm_pow", "gcube.cli", "gowers_norm_pow"),
    ("gowers.energy_P", "gcube.cli", "_ENERGY", "P"),
    ("gowers.energy_E", "gcube.cli", "_ENERGY", "E"),
    ("gowers.energy_E_tilde", "gcube.cli", "_ENERGY", "Etilde"),
    ("gowers.energy_P", "gcube.solver", "energy_P"),
    ("gowers.energy_P", "gcube.verify", "energy_P"),
    ("gowers.gowers_norm_recursive", "gcube.verify", "gowers_norm_recursive"),
    ("gowers.gowers_inner_product", "gcube.verify", "gowers_inner_product"),
    ("entropy.verify_majorization_lemma", "gcube.verify", "verify_majorization_lemma"),
    ("entropy.verify_entropy_corollary", "gcube.verify", "verify_entropy_corollary"),
    ("entropy.pmf_signed_sum", "gcube.entropy", "pmf_signed_sum"),
    ("entropy.pmf_signed_sum", "gcube.cli", "pmf_signed_sum"),
    ("lattice.load", "gcube.cli", "load_function"),
    ("lattice.load", "gcube.cli", "load_set"),
]

# Spans whose first argument is recorded, to count distinct inputs.
RECORD_ARG = {"entropy.pmf_signed_sum"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.distinct = {name: set() for name in RECORD_ARG}
        self.missing = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        seen = self.distinct.get(name)

        def traced(*args, **kwargs):
            if seen is not None and args:
                seen.add(args[0] if isinstance(args[0], tuple) else repr(args[0]))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import gcube.cli

        for site in SITES:
            name, module, attr = site[:3]
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            if len(site) == 3:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
                continue
            table = dict(getattr(mod, attr))
            if site[3] not in table:
                self.missing.append(f"{module}.{attr}[{site[3]!r}]")
                continue
            table[site[3]] = self.wrap(name, table[site[3]])
            setattr(mod, attr, table)
        # Each suite gets a span of its own, so cli.main's self time is
        # argument parsing, formatting and printing only.
        suites = dict(gcube.cli.SUITES)
        for suite, fn in suites.items():
            suites[suite] = self.wrap(f"verify.{suite}", fn)
        gcube.cli.SUITES = suites
