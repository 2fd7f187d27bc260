.PHONY: install test bench examples results clean

install:
	pip install -e . || pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ -s

examples:
	python examples/quickstart.py
	python examples/covert_channel_duel.py
	python examples/genome_leak.py
	python examples/defense_tradeoffs.py
	python examples/recon_and_massage.py
	python examples/keystroke_spy.py

results:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ 2>&1 | tee bench_output.txt

clean:
	rm -rf reports test_output.txt bench_output.txt .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
