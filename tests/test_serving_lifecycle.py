"""Tests for full-lifecycle (prefill + decode) serving."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, IncompleteRequestError
from repro.hw import v100_nvlink_node
from repro.models import OPT_30B
from repro.serving import ChatRequest, LifecycleServer, chat_workload
from repro.serving.api import make_strategy

MODEL = OPT_30B.scaled_layers(6)
NODE = v100_nvlink_node(4)


def run(strategy_name="intra", n=24, rate=120.0, **kw):
    strat = make_strategy(strategy_name, MODEL, NODE)
    server = LifecycleServer(MODEL, NODE, strat, check_memory=False, **kw)
    return server, server.run(chat_workload(n, rate, seed=5))


class TestChatRequest:
    def test_metrics_require_progress(self):
        r = ChatRequest(rid=0, arrival=10.0, prompt_len=16, gen_tokens=4)
        with pytest.raises(IncompleteRequestError):
            _ = r.ttft
        with pytest.raises(IncompleteRequestError):
            _ = r.latency
        r.prefill_done = 30.0
        assert r.ttft == 20.0
        r.tokens_done = 2
        assert r.current_context == 18
        assert not r.finished

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChatRequest(rid=0, arrival=0.0, prompt_len=0, gen_tokens=4)
        with pytest.raises(ConfigError):
            chat_workload(0, 1.0)
        with pytest.raises(ConfigError):
            chat_workload(4, 1.0, prompt_range=(0, 8))


class TestLifecycleServer:
    def test_all_requests_finish_with_both_metrics(self):
        server, result = run()
        assert result.num_requests == 24
        assert result.ttft.mean > 0
        assert result.latency.mean > result.ttft.mean  # decode comes after
        # Every generated token was counted.
        reqs = chat_workload(24, 120.0, seed=5)
        assert result.tokens_generated == sum(r.gen_tokens for r in reqs)

    def test_ttft_much_smaller_than_full_latency(self):
        _, result = run()
        assert result.ttft.mean < 0.6 * result.latency.mean

    def test_memory_returns_to_weights_only(self):
        server, _ = run()
        weights = MODEL.weight_bytes_per_device(NODE.num_gpus)
        for dev in server.memory.devices:
            assert dev.used == pytest.approx(weights)

    def test_liger_composes(self):
        _, intra = run("intra", rate=200.0, n=32)
        _, liger = run("liger", rate=200.0, n=32)
        assert liger.latency.mean <= intra.latency.mean * 1.02
        assert liger.ttft.mean <= intra.ttft.mean * 1.05

    def test_prefill_batch_size_respected(self):
        server, result = run(prefill_batch=1)
        assert result.num_requests == 24

    def test_prompt_waits_for_its_prefill_groupmate(self):
        """KV for one chat only: a prompt that would fit once the chat
        before it in its prefill group finishes waits instead of failing,
        and a chat that can never fit still raises."""
        from repro.errors import OutOfMemoryError

        def serve(prompt_len):
            strat = make_strategy("intra", MODEL, NODE)
            server = LifecycleServer(
                MODEL, NODE, strat, prefill_batch=2, check_memory=False
            )
            one = server._seq_bytes(
                ChatRequest(rid=-1, arrival=0.0, prompt_len=64, gen_tokens=8)
            )
            server.memory.reserve("squeeze", server.memory.min_available() - one)
            # Chats 1 and 2 queue behind chat 0's prefill, then form one
            # prefill group once chat 0 has left.
            chats = [
                ChatRequest(rid=i, arrival=float(min(i, 1)),
                            prompt_len=prompt_len, gen_tokens=8)
                for i in range(3)
            ]
            return server, server.run(chats)

        server, result = serve(64)
        assert result.num_requests == 3
        assert not server._reserved
        with pytest.raises(OutOfMemoryError):
            serve(65)

    def test_invalid_params(self):
        strat = make_strategy("intra", MODEL, NODE)
        with pytest.raises(ConfigError):
            LifecycleServer(MODEL, NODE, strat, prefill_batch=0, check_memory=False)
        strat2 = make_strategy("intra", MODEL, NODE)
        server = LifecycleServer(MODEL, NODE, strat2, check_memory=False)
        with pytest.raises(ConfigError):
            server.run([])

    def test_summary_renders(self):
        _, result = run()
        text = result.summary()
        assert "TTFT" in text and "tok/s" in text
