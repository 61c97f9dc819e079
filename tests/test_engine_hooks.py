"""Tests for the hook system."""

from repro.engine.hooks import Hook, HookCtx, Hookable


class _Counter:
    def __init__(self):
        self.count = 0
        self.last = None

    def func(self, ctx):
        self.count += 1
        self.last = ctx


class TestHookable:
    def test_invoke_reaches_all_hooks(self):
        target = Hookable()
        hooks = [_Counter() for _ in range(3)]
        for h in hooks:
            target.accept_hook(h)
        target.invoke_hooks(HookCtx("pos", 1.0))
        assert all(h.count == 1 for h in hooks)

    def test_remove_hook(self):
        target = Hookable()
        hook = _Counter()
        target.accept_hook(hook)
        target.remove_hook(hook)
        target.invoke_hooks(HookCtx("pos", 1.0))
        assert hook.count == 0
        assert target.num_hooks == 0

    def test_ctx_fields(self):
        target = Hookable()
        hook = _Counter()
        target.accept_hook(hook)
        target.invoke_hooks(HookCtx("p", 2.0, item="x", detail={"k": 1}))
        assert hook.last.pos == "p"
        assert hook.last.time == 2.0
        assert hook.last.item == "x"
        assert hook.last.detail == {"k": 1}

    def test_counter_satisfies_protocol(self):
        assert isinstance(_Counter(), Hook)

