#!/usr/bin/env python3
"""landau-lint: annotation-driven static analyzer for the emulated-CUDA kernel layer.

The repo's kernels are written against a CPU emulation of the CUDA
hierarchical model (src/exec/cuda_sim.h, src/exec/kokkos_sim.h). Being plain
C++, the emulator silently accepts whole bug classes that nvcc / the Kokkos
compilers reject at build time on real hardware. This tool closes that gap
statically, keyed off the annotation vocabulary in src/exec/annotations.h
(LANDAU_KERNEL / LANDAU_DEVICE / LANDAU_HOST_ONLY / LANDAU_CROSS_BLOCK).

Checks (each individually toggleable with --disable/--enable):

  barrier-divergence  blk.sync()/team_barrier() lexically under a control
                      construct whose condition depends on thread identity,
                      or inside a per-thread phase lambda. Deadlocks on real
                      hardware; invisible in the emulator, which runs phases
                      sequentially.
  capture             device regions must not reference LANDAU_HOST_ONLY
                      names and must not declare host containers
                      (std::vector & friends) — a per-block host allocation
                      that would not compile under nvcc.
  atomics             stores into LANDAU_CROSS_BLOCK-marked global buffers
                      (the CSR assembly targets of paper §III-F) must go
                      through an atomic add path, never a raw subscript store.
  shared-bounds       provable out-of-bounds affine indexing of
                      constant-extent shared-memory tiles.
  launch-hygiene      every exec::launch / kokkos::parallel_for site carries
                      the LANDAU_KERNEL marker and a span-name string
                      literal; shared/register allocations are named; literal
                      Dim3 x-extents are powers of two when the kernel uses
                      the warp-shuffle butterfly.
  fp-hygiene          raw ==/!= on doubles and std::pow(x, integer-constant)
                      in device code.

Frontends: `--frontend clang` lexes each file with libclang using flags from
the exported compile_commands.json; `--frontend tokens` uses the built-in
lexer; `auto` (default) tries libclang and falls back to the built-in lexer.
Both feed the same analysis engine, so findings are identical modulo lexing
fidelity; the fallback never produces a spurious failure, it just lexes
without preprocessing. Exit code: 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import json
import os
import re
import sys
import time

ALL_CHECKS = [
    "barrier-divergence",
    "capture",
    "atomics",
    "shared-bounds",
    "launch-hygiene",
    "fp-hygiene",
]

HOST_CONTAINERS = {
    "vector", "string", "map", "unordered_map", "set", "unordered_set",
    "deque", "list", "multimap", "multiset", "function",
}

BARRIER_CALLEES = {"sync", "team_barrier"}
PHASE_CALLEES = {"threads", "team_range", "vector_range", "vector_reduce"}
ATOMIC_CALLEES = {"add_atomic", "atomicAdd", "atomic_add", "fetch_add"}


# ----------------------------------------------------------------------------
# Tokenization
# ----------------------------------------------------------------------------

class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind      # 'id' | 'num' | 'str' | 'chr' | 'punct'
        self.value = value
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.value}@{self.line}"


_PUNCTS = [
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",
]


def lex(text):
    """Built-in C++ lexer: comments and literals handled, preprocessor lines
    kept as tokens (we key off macro names, which is the point)."""
    toks = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            line += text.count("\n", i, j)
            i = j
            continue
        if c == '"' or text.startswith('R"', i):
            if text.startswith('R"', i):  # raw string R"delim( ... )delim"
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + m.end())
                    j = n if j < 0 else j + len(close)
                else:
                    j = i + 2
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
            toks.append(Token("str", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Token("chr", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Token("num", text[i:j].replace("'", ""), line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            # Digit separators inside numbers were handled above; here a char
            # literal prefix like u8'x' is rare enough to ignore.
            toks.append(Token("id", text[i:j], line))
            i = j
            continue
        if c == "#":  # preprocessor: skip to end of (continued) line
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" if k > 0 else False:
                    line += 1
                    j = k + 1
                    continue
                j = k
                break
            i = j
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Token("punct", c, line))
            i += 1
    return toks


def build_match_map(toks):
    """Map index of every ( [ { to the index of its matching closer."""
    match = {}
    stack = []
    openers = {"(": ")", "[": "]", "{": "}"}
    for i, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.value in openers:
            stack.append((i, openers[t.value]))
        elif t.value in ")]}":
            while stack:
                j, want = stack.pop()
                if want == t.value:
                    match[j] = i
                    break
    return match


def match_angle(toks, i):
    """i points at '<' opening a template argument list; return index of the
    matching '>' (token-level heuristic: balanced, stops at ';')."""
    depth = 0
    for j in range(i, len(toks)):
        v = toks[j].value
        if v == "<":
            depth += 1
        elif v in (">", ">>"):
            depth -= 2 if v == ">>" else 1
            if depth <= 0:
                return j
        elif v in (";", "{"):
            return None
    return None


def split_args(toks, lo, hi):
    """Split toks[lo:hi] (inside one call's parens) at top-level commas."""
    args, depth, start = [], 0, lo
    for i in range(lo, hi):
        v = toks[i].value
        if toks[i].kind == "punct":
            if v in "([{":
                depth += 1
            elif v in ")]}":
                depth -= 1
            elif v == "," and depth == 0:
                args.append((start, i))
                start = i + 1
    if start < hi:
        args.append((start, hi))
    return args


def snippet(toks, lo, hi, limit=40):
    s = " ".join(t.value for t in toks[lo:hi])
    return s if len(s) <= limit else s[: limit - 3] + "..."


def is_float_literal(tok):
    if tok.kind != "num":
        return False
    v = tok.value.lower()
    if v.startswith("0x"):
        return "p" in v
    return "." in v or "e" in v


def int_literal(tok):
    if tok.kind != "num":
        return None
    v = tok.value.lower().rstrip("ul")
    try:
        return int(v, 0)
    except ValueError:
        return None


# ----------------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def text(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.check, self.message)


# ----------------------------------------------------------------------------
# Per-file analysis
# ----------------------------------------------------------------------------

class Region:
    """One device region: a LANDAU_KERNEL lambda body or a LANDAU_DEVICE
    function body. (lo, hi) are token indices of the braces, exclusive."""

    def __init__(self, kind, name, lo, hi, block_param=None):
        self.kind = kind          # 'kernel' | 'device-fn'
        self.name = name
        self.lo = lo
        self.hi = hi
        self.block_param = block_param


class FileLint:
    def __init__(self, path, toks, checks, host_only_names, report):
        self.path = path
        self.toks = toks
        self.checks = checks
        self.host_only = host_only_names
        self.report = report
        self.match = build_match_map(toks)
        self.consts = self._collect_constexpr_ints()
        self.regions = []
        self.cross_block_refs = set()

    def tv(self, i):
        return self.toks[i].value if 0 <= i < len(self.toks) else ""

    def _collect_constexpr_ints(self):
        env = {}
        toks = self.toks
        for i, t in enumerate(toks):
            if t.value == "constexpr" and t.kind == "id":
                # constexpr <type...> NAME = <int literal> ;
                j = i + 1
                while j < len(toks) and toks[j].value not in ("=", ";", "{"):
                    j += 1
                if self.tv(j) == "=" and toks[j - 1].kind == "id":
                    val = int_literal(toks[j + 1]) if j + 1 < len(toks) else None
                    if val is not None and self.tv(j + 2) == ";":
                        env[toks[j - 1].value] = val
        return env

    # -- region discovery ---------------------------------------------------

    def discover(self):
        toks = self.toks
        i = 0
        while i < len(toks):
            v = toks[i].value
            if v == "LANDAU_CROSS_BLOCK":
                name = self._decl_name_before(i)
                if name:
                    self.cross_block_refs.add(name)
            elif v == "LANDAU_KERNEL":
                end = self._kernel_region(i)
                if end:
                    i = end
                    continue
            elif v == "LANDAU_DEVICE":
                end = self._device_fn_region(i)
                if end:
                    i = end
                    continue
            i += 1

    def _decl_name_before(self, i):
        """Backward scan from token i to the start of the statement, then the
        identifier directly before the first '=' is the declared name."""
        j = i
        while j > 0 and self.tv(j) not in (";", "{", "}"):
            j -= 1
        for k in range(j, i):
            if self.tv(k) == "=" and self.toks[k - 1].kind == "id":
                return self.toks[k - 1].value
        return None

    def _kernel_region(self, i):
        toks = self.toks
        j = i + 1
        if self.tv(j) != "[":
            return None
        cap_end = self.match.get(j)
        if cap_end is None:
            return None
        k = cap_end + 1
        block_param = None
        if self.tv(k) == "(":
            pend = self.match.get(k)
            ids = [t.value for t in toks[k + 1:pend] if t.kind == "id"]
            if ids:
                block_param = ids[-1]
            k = pend + 1
        while k < len(toks) and self.tv(k) != "{":
            if self.tv(k) == ";":
                return None
            k += 1
        body_end = self.match.get(k)
        if body_end is None:
            return None
        name = f"kernel@{toks[i].line}"
        self.regions.append(Region("kernel", name, k + 1, body_end, block_param))
        return body_end

    def _device_fn_region(self, i):
        toks = self.toks
        j = i + 1
        while j < len(toks) and self.tv(j) not in ("(", ";", "{"):
            j += 1
        if self.tv(j) != "(" or toks[j - 1].kind != "id":
            return None
        name = toks[j - 1].value
        pend = self.match.get(j)
        if pend is None:
            return None
        k = pend + 1
        while k < len(toks) and self.tv(k) not in ("{", ";"):
            k += 1
        if self.tv(k) != "{":
            return None  # declaration only
        body_end = self.match.get(k)
        if body_end is None:
            return None
        self.regions.append(Region("device-fn", name, k + 1, body_end))
        return body_end

    # -- driver -------------------------------------------------------------

    def run(self):
        self.discover()
        if "launch-hygiene" in self.checks:
            self.check_launch_sites()
        for r in self.regions:
            phases = self._phase_lambda_ranges(r)
            thread_dep = self._thread_dependent_names(r, phases)
            if "barrier-divergence" in self.checks:
                self.check_barriers(r, phases, thread_dep)
            if "capture" in self.checks:
                self.check_capture(r)
            if "atomics" in self.checks:
                self.check_atomics(r)
            if "shared-bounds" in self.checks:
                self.check_shared_bounds(r)
            if "launch-hygiene" in self.checks:
                self.check_alloc_names(r)
            if "fp-hygiene" in self.checks:
                self.check_fp(r)

    def emit(self, line, check, message):
        self.report.append(Finding(self.path, line, check, message))

    # -- phase lambdas and thread identity ----------------------------------

    def _phase_lambda_ranges(self, region):
        """[(lo, hi, params)] for lambdas passed to .threads/.team_range/..."""
        out = []
        i = region.lo
        while i < region.hi:
            if (self.toks[i].kind == "id" and self.toks[i].value in PHASE_CALLEES
                    and self.tv(i - 1) in (".", "->") and self.tv(i + 1) == "("):
                call_end = self.match.get(i + 1, region.hi)
                j = i + 2
                while j < call_end:
                    if self.tv(j) == "[":
                        cap_end = self.match.get(j)
                        if cap_end is None:
                            break
                        k = cap_end + 1
                        params = []
                        if self.tv(k) == "(":
                            pend = self.match.get(k)
                            for a_lo, a_hi in split_args(self.toks, k + 1, pend):
                                ids = [t.value for t in self.toks[a_lo:a_hi]
                                       if t.kind == "id"]
                                if ids:
                                    params.append(ids[-1])
                            k = pend + 1
                        while k < call_end and self.tv(k) != "{":
                            k += 1
                        bend = self.match.get(k)
                        if bend is not None:
                            out.append((k + 1, bend, params))
                        break
                    j += 1
                i = call_end
                continue
            i += 1
        return out

    def _thread_dependent_names(self, region, phases):
        """Identifiers carrying thread identity: phase-lambda parameters plus
        anything assigned from an expression mentioning one (forward pass)."""
        dep = {"threadIdx"}
        for _, _, params in phases:
            dep.update(params)
        toks = self.toks
        for _ in range(2):  # two passes handle simple chains
            i = region.lo
            while i < region.hi:
                if (self.tv(i) in ("=", "+=", "-=") and toks[i - 1].kind == "id"
                        and self.tv(i - 2) != "["):
                    j = i + 1
                    rhs_dep = False
                    while j < region.hi and self.tv(j) not in (";", "{"):
                        if toks[j].kind == "id" and toks[j].value in dep:
                            rhs_dep = True
                        j += 1
                    if rhs_dep:
                        dep.add(toks[i - 1].value)
                    i = j
                    continue
                i += 1
        return dep

    # -- check: barrier-divergence ------------------------------------------

    def _cond_ranges(self, region):
        """[(scope_lo, scope_hi, cond_lo, cond_hi)] for if/while/for within
        the region, where scope covers the controlled statement(s)."""
        out = []
        toks = self.toks
        i = region.lo
        while i < region.hi:
            v = toks[i].value
            if toks[i].kind == "id" and v in ("if", "while", "for") and self.tv(i + 1) == "(":
                pend = self.match.get(i + 1)
                if pend is None:
                    i += 1
                    continue
                clo, chi = i + 2, pend
                if v == "for":
                    semis = [j for j in range(i + 2, pend)
                             if self.tv(j) == ";" and self._depth_between(i + 2, j) == 0]
                    if len(semis) >= 2:
                        clo, chi = semis[0] + 1, semis[1]
                k = pend + 1
                if self.tv(k) == "{":
                    scope_hi = self.match.get(k, region.hi)
                    scope_lo = k + 1
                else:
                    scope_lo = k
                    while k < region.hi and self.tv(k) != ";":
                        if self.tv(k) == "{":
                            k = self.match.get(k, region.hi)
                        k += 1
                    scope_hi = k
                out.append((scope_lo, scope_hi, clo, chi))
                # else branch inherits the same condition
                j = scope_hi + 1 if self.tv(scope_hi) == "}" else scope_hi + 1
                if self.tv(j) == "else":
                    k = j + 1
                    if self.tv(k) == "{":
                        out.append((k + 1, self.match.get(k, region.hi), clo, chi))
            i += 1
        return out

    def _depth_between(self, lo, i):
        d = 0
        for j in range(lo, i):
            v = self.tv(j)
            if v in "([{":
                d += 1
            elif v in ")]}":
                d -= 1
        return d

    def check_barriers(self, region, phases, thread_dep):
        conds = self._cond_ranges(region)
        toks = self.toks
        for i in range(region.lo, region.hi):
            if (toks[i].kind == "id" and toks[i].value in BARRIER_CALLEES
                    and self.tv(i - 1) in (".", "->") and self.tv(i + 1) == "("):
                in_phase = any(lo <= i < hi for lo, hi, _ in phases)
                if in_phase:
                    self.emit(toks[i].line, "barrier-divergence",
                              f"barrier '{toks[i].value}' inside per-thread phase lambda")
                    continue
                for scope_lo, scope_hi, clo, chi in conds:
                    if scope_lo <= i < scope_hi:
                        if any(t.kind == "id" and t.value in thread_dep
                               for t in toks[clo:chi]):
                            self.emit(
                                toks[i].line, "barrier-divergence",
                                f"barrier '{toks[i].value}' under thread-dependent "
                                f"condition '{snippet(toks, clo, chi)}'")
                            break

    # -- check: capture ------------------------------------------------------

    def check_capture(self, region):
        toks = self.toks
        for i in range(region.lo, region.hi):
            if toks[i].kind != "id":
                continue
            v = toks[i].value
            if v in self.host_only:
                self.emit(toks[i].line, "capture",
                          f"host-only name '{v}' referenced in device region "
                          f"'{region.name}'")
            elif (v in HOST_CONTAINERS and self.tv(i - 1) == "::"
                  and self.tv(i - 2) == "std"):
                self.emit(toks[i].line, "capture",
                          f"host container 'std::{v}' declared in device region "
                          f"'{region.name}'")

    # -- check: atomics -------------------------------------------------------

    def _cross_block_views(self, region):
        """Names bound inside the region to views of LANDAU_CROSS_BLOCK refs:
        `auto NAME = ....view(REF)` or `checked_span<T> NAME(REF, ...)`."""
        views = set()
        toks = self.toks
        for i in range(region.lo, region.hi):
            if toks[i].kind == "id" and toks[i].value in self.cross_block_refs:
                name = self._decl_name_before(i)
                if name:
                    views.add(name)
                else:
                    # constructor form: NAME ( REF ... )
                    j = i - 1
                    while j > region.lo and self.tv(j) not in ("(", ",", ";"):
                        j -= 1
                    if self.tv(j) == "(" and toks[j - 1].kind == "id":
                        views.add(toks[j - 1].value)
        views -= self.cross_block_refs
        return views

    def check_atomics(self, region):
        views = self._cross_block_views(region)
        if not views:
            return
        toks = self.toks
        for i in range(region.lo, region.hi):
            if toks[i].kind == "id" and toks[i].value in views and self.tv(i + 1) == "[":
                close = self.match.get(i + 1)
                if close is None:
                    continue
                nxt = self.tv(close + 1)
                if nxt in ("=", "+=", "-=", "*=", "/=") or nxt in ("++", "--") \
                        or self.tv(i - 1) in ("++", "--"):
                    self.emit(toks[i].line, "atomics",
                              f"non-atomic store through cross-block view "
                              f"'{toks[i].value}' (route through an atomic add, "
                              f"paper §III-F)")

    # -- check: shared-bounds -------------------------------------------------

    def _assignment_env(self, region):
        env = {}
        toks = self.toks
        for i in range(region.lo, region.hi):
            if self.tv(i) == "=" and toks[i - 1].kind == "id" and self.tv(i + 1) != "=":
                j = i + 1
                while j < region.hi and self.tv(j) != ";":
                    if self.tv(j) in "([{":
                        j = self.match.get(j, region.hi)
                    j += 1
                name = toks[i - 1].value
                env[name] = None if name in env else (i + 1, j)
        return {k: v for k, v in env.items() if v}

    def _loop_max_env(self, region, assign_env):
        """Loop variable -> max value, for fully resolvable bounds."""
        env = {}
        toks = self.toks
        i = region.lo
        while i < region.hi:
            if toks[i].kind == "id" and toks[i].value == "for" and self.tv(i + 1) == "(":
                pend = self.match.get(i + 1)
                if pend:
                    semis = [j for j in range(i + 2, pend)
                             if self.tv(j) == ";" and self._depth_between(i + 2, j) == 0]
                    if len(semis) >= 2:
                        clo, chi = semis[0] + 1, semis[1]
                        m = None
                        for j in range(clo, chi):
                            if self.tv(j) in ("<", "<="):
                                if toks[j - 1].kind == "id":
                                    bound = self._eval(j + 1, chi, assign_env, {}, 0)
                                    if bound is not None:
                                        m = (toks[j - 1].value,
                                             bound if self.tv(j) == "<=" else bound - 1)
                                break
                        if m:
                            name, val = m
                            env[name] = None if name in env and env[name] != val else val
            i += 1
        return {k: v for k, v in env.items() if v is not None}

    def _eval(self, lo, hi, assign_env, loop_env, depth):
        """Exact integer evaluation of a token slice; None if not provable."""
        if depth > 8 or lo >= hi:
            return None
        toks = self.toks
        # strip static_cast<T>( x ) and outer parens
        if toks[lo].value == "static_cast":
            a = match_angle(toks, lo + 1)
            if a is not None and self.tv(a + 1) == "(" and self.match.get(a + 1) == hi - 1:
                return self._eval(a + 2, hi - 1, assign_env, loop_env, depth + 1)
        if toks[lo].value == "(" and self.match.get(lo) == hi - 1:
            return self._eval(lo + 1, hi - 1, assign_env, loop_env, depth + 1)
        # std::min<...>(a, b, ...) — exact only if every argument is exact
        base = lo
        if self.tv(lo) == "std" and self.tv(lo + 1) == "::":
            base = lo + 2
        if self.tv(base) == "min":
            j = base + 1
            if self.tv(j) == "<":
                a = match_angle(toks, j)
                j = a + 1 if a is not None else j
            if self.tv(j) == "(" and self.match.get(j) == hi - 1:
                vals = [self._eval(alo, ahi, assign_env, loop_env, depth + 1)
                        for alo, ahi in split_args(toks, j + 1, hi - 1)]
                return min(vals) if vals and all(v is not None for v in vals) else None
        # binary +, -, * at top level (rightmost +/- first, then *)
        for ops in (("+", "-"), ("*",)):
            d = 0
            for j in range(hi - 1, lo - 1, -1):
                v = self.tv(j)
                if v in ")]}":
                    d += 1
                elif v in "([{":
                    d -= 1
                elif d == 0 and v in ops and j > lo and (
                        toks[j - 1].kind in ("num", "id") or self.tv(j - 1) in (")", "]")):
                    a = self._eval(lo, j, assign_env, loop_env, depth + 1)
                    b = self._eval(j + 1, hi, assign_env, loop_env, depth + 1)
                    if a is None or b is None:
                        return None
                    return a + b if v == "+" else a - b if v == "-" else a * b
        if hi - lo == 1:
            t = toks[lo]
            if t.kind == "num":
                return int_literal(t)
            if t.kind == "id":
                if t.value in loop_env:
                    return loop_env[t.value]
                if t.value in self.consts:
                    return self.consts[t.value]
                if t.value in assign_env:
                    alo, ahi = assign_env[t.value]
                    return self._eval(alo, ahi, assign_env, loop_env, depth + 1)
        return None

    def check_shared_bounds(self, region):
        toks = self.toks
        assign_env = self._assignment_env(region)
        loop_env = self._loop_max_env(region, assign_env)
        shared = {}  # name -> exact extent
        for i in range(region.lo, region.hi):
            if (toks[i].kind == "id" and toks[i].value in ("shared", "team_scratch")
                    and self.tv(i - 1) in (".", "->")):
                a = match_angle(toks, i + 1) if self.tv(i + 1) == "<" else None
                call = (a + 1) if a is not None else (i + 1)
                if self.tv(call) != "(":
                    continue
                pend = self.match.get(call)
                args = split_args(toks, call + 1, pend)
                if not args:
                    continue
                extent = self._eval(args[0][0], args[0][1], assign_env, {}, 0)
                name = self._decl_name_before(i)
                if extent is not None and name:
                    shared[name] = extent
        if not shared:
            return
        for i in range(region.lo, region.hi):
            if toks[i].kind == "id" and toks[i].value in shared and self.tv(i + 1) == "[":
                close = self.match.get(i + 1)
                if close is None:
                    continue
                mx = self._eval(i + 2, close, assign_env, loop_env, 0)
                if mx is not None and mx >= shared[toks[i].value]:
                    self.emit(toks[i].line, "shared-bounds",
                              f"index '{snippet(toks, i + 2, close)}' (max {mx}) out of "
                              f"bounds for shared buffer '{toks[i].value}' "
                              f"(extent {shared[toks[i].value]})")

    # -- check: launch-hygiene ------------------------------------------------

    def check_launch_sites(self):
        toks = self.toks
        has_shfl_kernel = any(
            toks[i].value == "shfl_xor_sum_x"
            for r in self.regions for i in range(r.lo, r.hi))
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.value in ("launch", "parallel_for")
                    and self.tv(i - 1) == "::" and self.tv(i + 1) == "("):
                pend = self.match.get(i + 1)
                if pend is None:
                    continue
                if self.tv(pend + 1) != ";":
                    continue  # definition (`) {`) rather than a call statement
                inner = toks[i + 2:pend]
                if not any(x.value == "LANDAU_KERNEL" for x in inner):
                    self.emit(t.line, "launch-hygiene",
                              "launch site missing LANDAU_KERNEL annotation on its "
                              "kernel lambda")
                args = split_args(toks, i + 2, pend)
                named = any(hi - lo == 1 and toks[lo].kind == "str"
                            for lo, hi in args)
                if not named:
                    self.emit(t.line, "launch-hygiene",
                              "launch missing span-name string literal argument")
            # literal Dim3 x-extent must be a power of two when the file's
            # kernels use the warp-shuffle butterfly
            if (t.kind == "id" and t.value == "Dim3" and has_shfl_kernel
                    and self.tv(i + 2) == "{"):
                x = int_literal(toks[i + 3]) if i + 3 < len(toks) else None
                if x is not None and (x <= 0 or x & (x - 1)):
                    self.emit(t.line, "launch-hygiene",
                              f"Dim3 x-extent {x} is not a power of two but a kernel "
                              f"in this file uses shfl_xor_sum_x")

    def check_alloc_names(self, region):
        toks = self.toks
        for i in range(region.lo, region.hi):
            if (toks[i].kind == "id"
                    and toks[i].value in ("shared", "team_scratch", "registers")
                    and self.tv(i - 1) in (".", "->")):
                # The allocation methods are always templated on the element
                # type; a plain call (e.g. some obj.shared(bytes)) is a
                # different method that happens to share the name.
                a = match_angle(toks, i + 1) if self.tv(i + 1) == "<" else None
                if a is None:
                    continue
                call = a + 1
                if self.tv(call) != "(":
                    continue
                pend = self.match.get(call)
                args = split_args(toks, call + 1, pend)
                if not any(hi - lo == 1 and toks[lo].kind == "str" for lo, hi in args):
                    self.emit(toks[i].line, "launch-hygiene",
                              f"unnamed '{toks[i].value}' allocation in device region "
                              f"'{region.name}' (pass a name literal)")

    # -- check: fp-hygiene ----------------------------------------------------

    def check_fp(self, region):
        toks = self.toks
        doubles = set()
        for i in range(region.lo, region.hi):
            if toks[i].value == "double" and toks[i + 1].kind == "id":
                doubles.add(toks[i + 1].value)
        for i in range(region.lo, region.hi):
            v = self.tv(i)
            if v in ("==", "!="):
                prev_t, next_t = toks[i - 1], toks[i + 1]
                fp = (is_float_literal(prev_t) or is_float_literal(next_t)
                      or (prev_t.kind == "id" and prev_t.value in doubles)
                      or (next_t.kind == "id" and next_t.value in doubles))
                if fp:
                    self.emit(toks[i].line, "fp-hygiene",
                              f"floating-point '{v}' in device code (use a tolerance, "
                              f"or landau::fp::exact_eq for an intentional bitwise "
                              f"compare)")
            elif toks[i].kind == "id" and v == "pow" and self.tv(i + 1) == "(":
                pend = self.match.get(i + 1)
                if pend is None:
                    continue
                args = split_args(toks, i + 2, pend)
                if len(args) == 2:
                    lo, hi = args[1]
                    sl = slice(lo + 1, hi) if self.tv(lo) == "-" else slice(lo, hi)
                    rng = toks[sl]
                    if len(rng) == 1 and int_literal(rng[0]) is not None:
                        self.emit(toks[i].line, "fp-hygiene",
                                  f"std::pow with integer exponent "
                                  f"{snippet(toks, lo, hi)} in device code (use "
                                  f"explicit multiplies)")


# ----------------------------------------------------------------------------
# Frontends
# ----------------------------------------------------------------------------

def load_clang(compile_commands):
    """Return (tokenize_fn, note) using libclang, or (None, reason)."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError as e:
        return None, f"python clang bindings unavailable ({e})"
    try:
        from clang.cindex import Index, TokenKind
        index = Index.create()
    except Exception as e:  # missing libclang.so, version mismatch, ...
        return None, f"libclang unavailable ({e})"

    flags_by_file = {}
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands) as f:
                for entry in json.load(f):
                    args = entry.get("arguments") or entry.get("command", "").split()
                    keep = [a for a in args[1:] if a.startswith(("-I", "-D", "-std"))]
                    flags_by_file[os.path.abspath(
                        os.path.join(entry["directory"], entry["file"]))] = keep
        except Exception:
            pass

    kind_map = {
        TokenKind.IDENTIFIER: "id",
        TokenKind.KEYWORD: "id",
        TokenKind.LITERAL: "num",
        TokenKind.PUNCTUATION: "punct",
    }

    def tokenize(path, text):
        flags = flags_by_file.get(os.path.abspath(path), ["-std=c++20"])
        tu = index.parse(path, args=flags,
                         options=0x40 | 0x01)  # keep-going, detailed-preproc
        toks = []
        for t in tu.get_tokens(extent=tu.cursor.extent):
            kind = kind_map.get(t.kind)
            if kind is None:  # comments
                continue
            v = t.spelling
            if kind == "num" and (v.startswith('"') or v.startswith("'")
                                  or v.startswith('R"')):
                kind = "str" if '"' in v[:2] or v.startswith('R"') else "chr"
            toks.append(Token(kind, v, t.location.line))
        return toks

    return tokenize, "libclang"


def gather_files(paths, compile_commands):
    files = []
    seen = set()
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith((".cpp", ".cc", ".h", ".hpp")):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"landau-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    if not paths and compile_commands and os.path.exists(compile_commands):
        with open(compile_commands) as f:
            for entry in json.load(f):
                files.append(os.path.abspath(
                    os.path.join(entry["directory"], entry["file"])))
    out = []
    for f in files:
        rp = os.path.normpath(f)
        if rp not in seen:
            seen.add(rp)
            out.append(rp)
    return out


def collect_host_only(token_streams):
    """Names annotated LANDAU_HOST_ONLY anywhere in the scanned tree."""
    names = set()
    for toks in token_streams.values():
        for i, t in enumerate(toks):
            if t.value == "LANDAU_HOST_ONLY" and i + 1 < len(toks):
                nxt = toks[i + 1]
                if nxt.kind == "id":
                    names.add(nxt.value)
                else:
                    # function form: LANDAU_HOST_ONLY <type...> name(
                    for j in range(i + 1, min(i + 8, len(toks))):
                        if toks[j].value == "(" and toks[j - 1].kind == "id":
                            names.add(toks[j - 1].value)
                            break
    names.discard("LANDAU_HOST_ONLY")
    return names


def main(argv=None):
    ap = argparse.ArgumentParser(prog="landau-lint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json (flags for the clang frontend; "
                         "file list when no paths are given)")
    ap.add_argument("--frontend", choices=["auto", "clang", "tokens"], default="auto")
    ap.add_argument("--disable", default="", metavar="CHECKS",
                    help="comma-separated checks to turn off")
    ap.add_argument("--enable", default="", metavar="CHECKS",
                    help="comma-separated checks to run exclusively")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--quiet", action="store_true", help="suppress summary line")
    args = ap.parse_args(argv)

    if args.list_checks:
        print("\n".join(ALL_CHECKS))
        return 0

    checks = set(ALL_CHECKS)
    for name in filter(None, args.enable.split(",")):
        if name not in ALL_CHECKS:
            print(f"landau-lint: unknown check '{name}'", file=sys.stderr)
            return 2
    if args.enable:
        checks = set(filter(None, args.enable.split(",")))
    for name in filter(None, args.disable.split(",")):
        if name not in ALL_CHECKS:
            print(f"landau-lint: unknown check '{name}'", file=sys.stderr)
            return 2
        checks.discard(name)

    files = gather_files(args.paths, args.compile_commands)
    if not files:
        print("landau-lint: nothing to lint (pass paths or --compile-commands)",
              file=sys.stderr)
        return 2

    t0 = time.monotonic()
    tokenize, note = None, None
    if args.frontend in ("auto", "clang"):
        tokenize, note = load_clang(args.compile_commands)
        if tokenize is None and args.frontend == "clang":
            print(f"landau-lint: --frontend clang requested but {note}",
                  file=sys.stderr)
            return 2
    frontend = "clang" if tokenize else "tokens"

    streams = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"landau-lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        if tokenize:
            try:
                streams[path] = tokenize(path, text)
                continue
            except Exception as e:
                # graceful per-file degradation, never a spurious failure
                print(f"landau-lint: clang frontend failed on {path} ({e}); "
                      f"using built-in lexer", file=sys.stderr)
        streams[path] = lex(text)

    host_only = collect_host_only(streams)
    findings = []
    for path, toks in streams.items():
        FileLint(path, toks, checks, host_only, findings).run()
    findings.sort(key=Finding.sort_key)

    if args.format == "json":
        print(json.dumps([{"file": f.path, "line": f.line, "check": f.check,
                           "message": f.message} for f in findings], indent=2))
    else:
        for f in findings:
            print(f.text())
    if not args.quiet:
        dt = time.monotonic() - t0
        n_files = len({f.path for f in findings})
        print(f"landau-lint: {len(findings)} finding(s) in {n_files} file(s); "
              f"scanned {len(files)} files in {dt:.2f}s "
              f"[frontend={frontend}{'' if frontend == 'clang' else f', {note}' if note else ''}]",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
