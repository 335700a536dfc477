"""E1 `daemon-accounting`: periodic events only via EventQueue::every.

The EventQueue drains when its last event pops. A periodic event
that re-arms itself would keep the queue non-empty forever unless it
re-arms only while events other than periodic ones remain; two such
events that each test `!empty()` keep each other alive (the
mutual-keepalive hang). That rule lives in one place: the queue's
periodic-service hub, `EventQueue::every(interval, fn, ctx)`, whose
daemon accounting is private to src/sim/event_queue.*.

So any handler that re-arms itself outside src/sim/event_queue.* is
a finding, whatever guard it uses: "use EventQueue::every".

Detection (whole-program): a handler H of class C is self-rearming
when some method schedules the member-function pointer `&C::H` and
that schedule is reachable from H through the project call graph
(restricted to C's methods plus free functions, depth <= 6), so a
re-arm buried several helpers deep is still found
(tests/lint_fixtures/daemon_deep_bad.cc). The finding sits on each
re-arming schedule call. One-shot handlers are exempt.
"""

from ..scan import split_args

RULE_ID = "daemon-accounting"

DOC = "periodic events only via EventQueue::every"

# The hub itself is the one sanctioned self-re-arming handler.
_HUB_PREFIX = "src/sim/event_queue."


def _handler_schedules(body):
    """[(line, cls_or_None, handler_name)] for schedule() calls in
    `body` passing a `&C::H` (or `&H`) function argument."""
    out = []
    for i, t in enumerate(body):
        if not (t.kind == "id" and t.text == "schedule" and
                i + 1 < len(body) and body[i + 1].text == "("):
            continue
        args, _close = split_args(body, i + 1)
        for arg in args:
            if not arg or not (arg[0].kind == "punct" and
                               arg[0].text == "&"):
                continue
            if len(arg) >= 4 and arg[1].kind == "id" and \
                    arg[2].kind == "punct" and arg[2].text == "::" \
                    and arg[3].kind == "id":
                out.append((t.line, arg[1].text, arg[3].text))
            elif len(arg) >= 2 and arg[1].kind == "id" and (
                    len(arg) == 2 or arg[2].kind != "punct" or
                    arg[2].text != "::"):
                out.append((t.line, None, arg[1].text))
    return out


def _schedules_of(body, cls_name, hname):
    return [line for line, hcls, h in _handler_schedules(body)
            if h == hname and hcls in (None, cls_name)]


def check_project(project):
    findings = []
    for cls_name, entry in project.classes.items():
        by_base = {}
        armed = set()
        for path, m in entry["methods"]:
            by_base.setdefault(m.name.split("::")[-1], (path, m))
            for _line, hcls, hname in _handler_schedules(m.body):
                if hcls in (None, cls_name):
                    armed.add(hname)

        for hname in sorted(armed):
            if hname not in by_base:
                continue
            hpath, handler = by_base[hname]
            # The call chain below the handler: C's own methods plus
            # free functions, so a re-arm N helpers deep is seen.
            chain = {id(handler): (hpath, handler)}
            hfi = project.func_of(handler)
            if hfi is not None:
                for k in project.reachable_from(
                        hfi.key, max_depth=6, same_class=cls_name):
                    cf = project.functions[k]
                    chain[id(cf.method)] = (cf.path, cf.method)
            for path, m in chain.values():
                if path.replace("\\", "/").startswith(_HUB_PREFIX):
                    continue
                for line in _schedules_of(m.body, cls_name, hname):
                    findings.append(
                        (path, line, RULE_ID,
                         "'%s::%s' re-arms itself; use "
                         "EventQueue::every" % (cls_name, hname)))
    return findings
