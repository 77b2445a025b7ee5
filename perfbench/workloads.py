#!/usr/bin/env python3
"""Seeded input generator of the eco_chip end-to-end benchmark.

Every workload's inputs are a pure function of (workload, seed): the
same seed writes the same files, and eco_chip only ever sees those
files (or, for serve_mixed, their lines sent over the socket).

    python3 perfbench/workloads.py --workload batch_report --seed 1 --out DIR

writes into DIR:

  requests.json  the measured batch (all but serve_mixed)
  one.json       a one-request file of the same kind (set-up timing)
  hosts.json     two one-slot local hosts (coordinate_local, and the
                 traced run's coordinator of every workload)
  conn0.ndjson   request lines for the closed-loop client of
                 `eco_chip --serve`: the measured traffic of
                 serve_mixed; for the other workloads, drawn from
                 requests.json for the traced run's server layers
"""

import argparse
import itertools
import json
import os
import random

BUILTINS = [
    "ga102", "ga102-mono", "ga102-hbm", "a15", "a15-mono", "emr",
    "server-4die", "hbm-accel", "fpga-pca", "riscv-manycore64",
    "arvr-2k",
]

# A 3-node sweep evaluates 3^chiplets assignments: keep it to the
# builtins with at most three independent dies, so every sweep stays
# a few hundred microseconds (monolithic parts reject sweeps).
SWEEPABLE = ["ga102", "a15", "emr", "fpga-pca"]

NODES = [3, 5, 7, 10, 14, 22, 28]

# Axes of the fpga-pca-space generator in
# data/scenarios/search_spaces.json (MANOJAVAM-class FPGA PCA
# accelerator): 3 x 3 x 3 x 2 = 54 derived scenarios.
FPGA_PCA_POINTS = [
    f"fpga-pca-space/pe_node={n}/pe_split={s}/packaging={p}/"
    f"lifetime_years={y}"
    for n in (5, 7, 10)
    for s in (1, 2, 4)
    for p in ("rdl_fanout", "silicon_bridge", "passive_interposer")
    for y in (3, 5)
]

CATALOG = os.path.join("data", "scenarios", "search_spaces.json")

# Sizes per workload (requests per batch file, trials per Monte Carlo
# request); recorded in BENCHMARK.json's `why` lines as well.
SIZES = {
    "batch_report": {"requests": 4000, "montecarlo": 88},
    "batch_montecarlo": {"requests": 605, "trials": (512, 2048)},
    "serve_mixed": {"lines_per_connection": 40000, "mc_trials": 512},
    # Other workloads: served lines per connection in the traced run.
    "traced_serve": {"lines_per_connection": 2000},
    "coordinate_local": {"requests": 3000, "montecarlo": 300,
                         "chunk_size": 100},
}

# Share of served lines that repeat an earlier request. Two in three:
# hits answer in ~0.1-0.3 ms and misses in ~0.5-2 ms, so at one in two
# the median round trip would fall in the gap between the two modes
# and swing with every run.
REPEAT_SHARE = 2 / 3

# Closed-loop connections to `eco_chip --serve`. One: with a second
# client the box's four CPUs run the client, the server's event loop
# and two evaluations at once, the host takes more of them back (steal
# rose from ~1% to 6-12%), and p99 swung 2.3-9.6 ms from run to run.
CONNECTIONS = 1

WORKLOADS = ["batch_report", "batch_montecarlo", "serve_mixed",
             "coordinate_local"]


KINDS = ["estimate", "sweep", "cost", "sensitivity"]


def cheap_request(rng, kind, scenario):
    """One estimate, 3-node sweep, cost or sensitivity request; the
    seed picks its parameters."""
    request = {"scenario": scenario, "analysis": kind}
    if kind == "sweep":
        request["nodes_nm"] = sorted(rng.sample(NODES, 3))
    elif kind == "cost":
        request["params"] = {"volume": rng.randrange(10_000, 2_000_000)}
    elif kind == "sensitivity":
        request["metric"] = rng.choice(
            ["embodied", "operational", "total"])
        request["delta"] = rng.randrange(1, 30) / 100.0
    return request


def cheap_requests(rng, n, scenarios):
    """@p n cheap requests: the four kinds in equal shares, each spread
    evenly over its scenarios, so that the work in a batch barely
    varies with the seed."""
    out = []
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        pool = SWEEPABLE if kind == "sweep" else scenarios
        out.append(cheap_request(rng, kind,
                                 pool[(i // len(KINDS)) % len(pool)]))
    return out


def mc_request(scenario, trials, seed):
    return {"scenario": scenario, "analysis": "monte_carlo",
            "trials": trials, "seed": seed}


def mc_requests(rng, n, scenarios, lo, hi):
    """@p n Monte Carlo requests spread evenly over @p scenarios, each
    scenario's trial counts evenly spaced over [lo, hi], every seed
    distinct."""
    per_scenario = max(1, -(-n // len(scenarios)) - 1)
    seeds = rng.sample(range(1, 1 << 31), n)
    return [mc_request(scenarios[i % len(scenarios)],
                       lo + (hi - lo) * (i // len(scenarios)) //
                       per_scenario, seeds[i])
            for i in range(n)]


def batch_report(rng):
    """Cheap requests, plus a few short Monte Carlo requests so that
    the kernels' Monte Carlo path is measured here too."""
    size = SIZES["batch_report"]
    out = cheap_requests(rng, size["requests"] - size["montecarlo"],
                         BUILTINS) + \
        mc_requests(rng, size["montecarlo"], BUILTINS, 64, 128)
    rng.shuffle(out)
    return out


def batch_montecarlo(rng):
    size = SIZES["batch_montecarlo"]
    out = mc_requests(rng, size["requests"], BUILTINS, *size["trials"])
    rng.shuffle(out)
    return out


def coordinate_local(rng):
    """Builtins and the 54 fpga-pca-space points, mostly cheap
    requests with one Monte Carlo request in ten."""
    size = SIZES["coordinate_local"]
    scenarios = BUILTINS + FPGA_PCA_POINTS
    out = cheap_requests(rng, size["requests"] - size["montecarlo"],
                         scenarios) + \
        mc_requests(rng, size["montecarlo"], scenarios, 128, 512)
    rng.shuffle(out)
    return out


def serve_lines(rng, first_sightings, lines_per_connection,
                connections=CONNECTIONS, repeat_share=REPEAT_SHARE):
    """Per-connection request lines for closed-loop clients.

    About @p repeat_share of the lines repeat a request sent earlier on
    the *same* connection, drawn with a skew toward the oldest ones (a
    hot set); the rest are first sightings, taken from the
    @p first_sightings iterator of request documents and distinct
    across all connections. A closed-loop client has its earlier
    answers back before it sends a repeat, so every repeat is a cache
    hit and every first sighting a miss, whatever the interleaving.
    Returns the lines of each connection.
    """
    seen = set()
    conns = []
    for _ in range(connections):
        sent = []
        lines = []
        while len(lines) < lines_per_connection:
            if sent and rng.random() < repeat_share:
                lines.append(sent[int(len(sent) * rng.random() ** 3)])
                continue
            line = next((text for text in (
                json.dumps(r, separators=(",", ":"))
                for r in first_sightings) if text not in seen), None)
            if line is None:
                break
            seen.add(line)
            sent.append(line)
            lines.append(line)
        conns.append(lines)
    return conns


def serve_first_sightings(rng):
    """Monte Carlo requests with a fresh seed alternating with cheap
    ones, cycling through the builtins."""
    trials = SIZES["serve_mixed"]["mc_trials"]
    for i in itertools.count():
        scenario = BUILTINS[(i // 2) % len(BUILTINS)]
        if i % 2:
            yield mc_request(scenario, trials, rng.randrange(1, 1 << 31))
        else:
            kind = KINDS[(i // 2) % len(KINDS)]
            if kind == "sweep":
                scenario = SWEEPABLE[(i // 2) % len(SWEEPABLE)]
            yield cheap_request(rng, kind, scenario)


def one_request(workload, rng):
    """The one-request file whose run times set-up. For coordinate_local
    it is a Monte Carlo request whose worker takes ~11 ms, between two
    wake-ups of the coordinator's doubling poll sleep (7 and 15 ms
    after dispatch), so that its exit is seen at the same wake-up
    however fast the box runs that minute."""
    if workload == "batch_montecarlo":
        return [mc_request("ga102", 1024, 1)]
    if workload == "coordinate_local":
        return [mc_request(FPGA_PCA_POINTS[0], 12000, 1)]
    return [cheap_request(rng, "estimate", "ga102")]


def write_lines(out_dir, conns, files):
    for i, lines in enumerate(conns):
        path = os.path.join(out_dir, f"conn{i}.ndjson")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        files[f"conn{i}"] = path


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def generate(workload, seed, out_dir, catalog):
    """Write the inputs of @p workload for @p seed into @p out_dir.

    @p catalog is the absolute path of the shipped generator catalog
    the coordinate_local batch binds (batch files resolve a relative
    catalog against their own directory).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    files = {"hosts": os.path.join(out_dir, "hosts.json")}
    write_json(files["hosts"], {"hosts": [
        {"name": "local-a", "slots": 1},
        {"name": "local-b", "slots": 1}]})
    if workload == "serve_mixed":
        conns = serve_lines(
            rng, serve_first_sightings(rng),
            SIZES["serve_mixed"]["lines_per_connection"])
        write_lines(out_dir, conns, files)
        return files

    requests = {"batch_report": batch_report,
                "batch_montecarlo": batch_montecarlo,
                "coordinate_local": coordinate_local}[workload](rng)
    one = one_request(workload, rng)
    batch = {"requests": requests}
    single = {"requests": one}
    if workload == "coordinate_local":
        batch = {"scenarios": catalog, "requests": requests}
        single = {"scenarios": catalog, "requests": one}
    # The server runs on the builtin catalog only.
    conns = serve_lines(
        rng, (r for r in requests if r["scenario"] in BUILTINS),
        SIZES["traced_serve"]["lines_per_connection"])
    write_lines(out_dir, conns, files)
    files["requests"] = os.path.join(out_dir, "requests.json")
    files["one"] = os.path.join(out_dir, "one.json")
    write_json(files["requests"], batch)
    write_json(files["one"], single)
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--catalog", default=os.path.abspath(CATALOG))
    args = parser.parse_args()
    for name, path in generate(args.workload, args.seed, args.out,
                               args.catalog).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
