"""The benchmark workloads.

Each workload generates its inputs from the seed (pandas only), builds a
queryable artefact from them, and then plays one closed-loop analyst:
the next call is sent only after the previous one returned. A request is
either a *lookup* (an index or model answer) or a *graph query* (a walk
or a BGP join over the graph). Answers are checked outside the timed
calls. Requests that run on the driver alone are reported at the
reference speed of ``harness.SpeedGauge``, those that run Spark jobs in
wall time; the wall times are kept beside them.

A build runs in one of two modes. The untraced build calls the public
entry points on the generated inputs: ``build_index`` for discovery, and
for automation the calls ``train_platform`` makes after generating its
corpus. The traced build calls the same layers one by one through their
public functions, persisting and counting each boundary's output so that
the Spark work is charged to the layer that caused it.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd

from repro.automation import automl, experiments
from repro.automation import cleaning as cl
from repro.automation import transformation as tr
from repro.automation.embeddings import column_embeddings, table_embedding_1800
from repro.core import graph_linker, profiler
from repro.core import ontology as O
from repro.core import schema_builder as sb
from repro.core.lids_graph import build_lids_graph
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.triples import TripleStore
from repro.datasets import cleaning_datasets, transformation_datasets
from repro.discovery import join_discovery as jd
from repro.discovery import union_search as us
from repro.discovery.metrics import precision_at_k
from repro.interfaces import api
from repro.lakegen.lake import LakeConfig, build_lake
from repro.pipelines_corpus.generator import (
    BEST_CLEANING_OF_KIND,
    BEST_SCALER_OF_SHAPE,
    make_corpus,
)

import kg_checks
from harness import SpeedGauge, Tracer

LOOKUP, GRAPH = "lookup", "graph"


@dataclass
class Outcome:
    """One closed-loop request: its kind, latency (at the gauge's reference
    speed, and wall) and whether it was correct."""

    kind: str
    seconds: float
    ok: bool
    wall: float = 0.0


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)
    hits: list[float] = field(default_factory=list)  # answer-quality samples


def checksum(frames: list[pd.DataFrame]) -> str:
    """Process-independent digest of generated tables."""
    h = hashlib.blake2b(digest_size=8)
    for pdf in frames:
        h.update(",".join(map(str, pdf.columns)).encode())
        h.update(pd.util.hash_pandas_object(pdf, index=True).to_numpy().tobytes())
    return h.hexdigest()


def _timed_call(gauge: SpeedGauge | None, errors: list[str], name: str, fn):
    """(answer, seconds at the reference speed, wall seconds), or
    (None, 0.0, 0.0) after recording the exception. Without a gauge (a
    request that runs Spark jobs on every core, whose speed one driver
    thread's gauge does not track) both times are the wall time."""
    try:
        if gauge is None:
            t0 = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - t0
            return out, seconds, seconds
        return gauge.timed(fn)
    except Exception as exc:  # a failed request is counted, not fatal
        errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return None, 0.0, 0.0


def traced_dataset_graph(spark, tables, dataset: str, tracer: Tracer) -> TripleStore:
    """Alg. 2 + Alg. 3 layer by layer, as ``build_dataset_graph`` composes them."""
    with tracer.span("profiler.columns_dataframe"):
        cols = profiler.columns_dataframe(spark, tables, dataset).persist()
        n_cols = cols.count()
    with tracer.span("profiler.profile_columns"):
        profiles = profiler.profile_columns(cols).persist()
        profiles.count()
    tracer.count("profiler.columns", n_cols)
    for row in profiles.groupBy("fgt").count().collect():
        tracer.count(f"profiler.columns.{row['fgt']}", row["count"])
    with tracer.span("schema_builder.metadata"):
        meta = sb.build_metadata_subgraph(profiles).persist()
        n_meta = meta.count()
    tracer.count("schema_builder.metadata_triples", n_meta)
    with tracer.span("schema_builder.similarity"):
        sim = sb.build_similarity_edges(spark, profiles).persist()
        sim.count()
    by_pred = {r["p"]: r["count"] for r in sim.groupBy("p").count().collect()}
    tracer.count("schema_builder.label_edges", by_pred.get(O.LABEL_SIMILARITY, 0))
    tracer.count("schema_builder.content_edges", by_pred.get(O.CONTENT_SIMILARITY, 0))
    return TripleStore(spark, meta.unionByName(sim))


# --------------------------------------------------------------------------
# discovery
# --------------------------------------------------------------------------
class Discovery:
    """One lake with many columns: union search, unionable columns and
    join paths over the union-search index."""

    # the santos_small shape (lakegen/benchmarks.py) at a smaller scale
    LAKE = LakeConfig(
        name="lake", n_groups=8, members_per_group=4, rows=200,
        n_query=8, k=3, hard=False, nl_extra=2,
    )
    # request rounds over the lake's tables after each of the 3-4 builds of
    # a run, so that the samples span the whole build phase
    ROUNDS = 2
    REQUESTS_AFTER_EACH_BUILD = True
    # untraced builds a run: at least three, so that the median drops a
    # slow first one; more while ``--seconds`` of build time allow
    MIN_BUILDS, MAX_BUILDS = 3, None
    HOPS = 2

    def __init__(self, spark, seed: int, tracer: Tracer):
        self.spark, self.seed, self.tracer = spark, seed, tracer
        self.gauge = SpeedGauge()
        self.errors: list[str] = []

    def make_inputs(self) -> None:
        with self.tracer.span("lakegen.build_lake"):
            self.lake = build_lake(replace(self.LAKE, seed=self.seed))

    def describe_inputs(self) -> dict:
        lake = self.lake
        return {
            "lake_checksum": checksum([lake.tables[t] for t in sorted(lake.tables)]),
            "tables": len(lake.tables),
            "columns": lake.n_columns(),
        }

    def warm_up(self) -> None:
        """Start a Python worker on every core and run each build step
        once, on a lake a quarter the size: a first build in a fresh
        process takes ~1.5x as long as the next ones."""
        small = build_lake(replace(self.LAKE, n_groups=2, n_query=2, seed=self.seed))
        us.build_index(self.spark, small)

    def build(self, traced: bool):
        if not traced:
            return us.build_index(self.spark, self.lake)
        graph = traced_dataset_graph(self.spark, self.lake.tables, self.lake.name, self.tracer)
        with self.tracer.span("union_search.index_from_graph"):
            return us.index_from_graph(graph, self.lake)

    def requests(self, index, result: PassResult) -> None:
        lake, tr_ = self.lake, self.tracer
        # every table is a query: request costs differ from table to table,
        # and a handful of query tables would make the percentiles hinge on
        # which few a seed drew
        queries = sorted(lake.tables)
        for rnd in range(self.ROUNDS):
            for i, q in enumerate(queries):
                def lookup(q=q):
                    t0 = time.perf_counter()
                    ranked = index.query(q, k=lake.k)
                    query_s = time.perf_counter() - t0
                    pairs = [api.find_unionable_columns(index, q, t) for t, _ in ranked]
                    return ranked, pairs, query_s

                answer, dt, wall = _timed_call(self.gauge, self.errors, f"union search {q}", lookup)
                if answer is None:
                    result.outcomes.append(Outcome(LOOKUP, 0.0, False))
                else:
                    ranked, pairs, query_s = answer
                    tr_.call("union_search.query", query_s * dt / wall)
                    tr_.call("api.find_unionable_columns", dt / max(1, len(pairs)))
                    result.hits.append(precision_at_k(
                        [t for t, _ in ranked], lake.unionable_with(q), lake.k))
                    result.outcomes.append(
                        Outcome(LOOKUP, dt, self._check_union(q, ranked, pairs), wall))
                target = queries[(i + len(queries) // 2) % len(queries)]
                paths, dt, wall = _timed_call(
                    self.gauge, self.errors, f"join path {q}",
                    lambda q=q, target=target: api.get_path_to_table(index, q, target, self.HOPS),
                )
                if paths is None:
                    result.outcomes.append(Outcome(GRAPH, 0.0, False))
                    continue
                tr_.call("api.get_path_to_table", dt)
                if rnd == 0:
                    tr_.count("join_discovery.paths_returned", len(paths))
                result.outcomes.append(
                    Outcome(GRAPH, dt, self._check_paths(q, target, paths), wall))

    def _report(self, what: str, problems: list[str]) -> bool:
        if problems:
            self.errors.append(f"{what}: " + "; ".join(problems[:3]))
        return not problems

    def _check_union(self, q, ranked, pairs) -> bool:
        """Results are at most k other lake tables; column pairs exist."""
        tables, problems = self.lake.tables, []
        if len(ranked) > self.lake.k:
            problems.append(f"{len(ranked)} results for k={self.lake.k}")
        for (t, _), pair in zip(ranked, pairs):
            if t not in tables or t == q:
                problems.append(f"unknown or self result {t!r}")
                continue
            bad = set(pair["column_a"]) - set(map(str, tables[q].columns))
            bad |= set(pair["column_b"]) - set(map(str, tables[t].columns))
            if bad:
                problems.append(f"unknown columns {sorted(bad)} for {t}")
        return self._report(f"union search {q}", problems)

    def _check_paths(self, q, target, paths) -> bool:
        """Every path joins lake tables from ``q`` to ``target`` in ≤ HOPS."""
        tables, problems = self.lake.tables, []
        for hops, path in zip(paths["hops"], paths["path"]):
            nodes = path.split(" -> ")
            if (nodes[0] != q or nodes[-1] != target or hops != len(nodes) - 1
                    or hops > self.HOPS or any(n not in tables for n in nodes)):
                problems.append(f"bad join path {path!r}")
        return self._report(f"join path {q}", problems)

    def sizes(self, index) -> dict:
        return {"union_search.index_edges": len(index.edges)}

    def traced_extras(self, index, result: PassResult) -> None:
        """The adjacency every join-path search rebuilds, timed alone."""
        _, dt, _ = self.gauge.timed(lambda: jd.joinable_adjacency(index))
        self.tracer.call("join_discovery.joinable_adjacency", dt)


# --------------------------------------------------------------------------
# automation
# --------------------------------------------------------------------------
class Automation:
    """One Kaggle-style pipeline corpus: train the platform (Alg. 1, KG label
    mining, GNN fitting), then the §5 graph queries on its graph and the
    cleaning and transformation recommendations for unseen datasets.

    Traced runs also build the LiDS graph of the corpus's first dataset
    with ``build_lids_graph`` (profiling, Alg. 3, the linker) and search it,
    reported only as per-layer metrics: one such build costs 12-17 s,
    more than an untraced run can spend on it.
    """

    CORPUS = dict(n_datasets=15, pipelines_per_dataset=3, rows=120)
    ROUNDS = 4  # evaluation-dataset draws per run (seed .. seed+3): 120 lookups
    MIX_ROUNDS = 3  # §5 mixes per run
    REQUESTS_AFTER_EACH_BUILD = False
    MIN_BUILDS, MAX_BUILDS = 1, 1  # one build takes longer than ``--seconds``
    TASK = "classification"
    CALLED = ("pandas.read_csv", "sklearn.model_selection.train_test_split")

    def __init__(self, spark, seed: int, tracer: Tracer):
        self.spark, self.seed, self.tracer = spark, seed, tracer
        self.gauge = SpeedGauge()
        self.errors: list[str] = []

    def make_inputs(self) -> None:
        with self.tracer.span("pipelines_corpus.make_corpus"):
            self.datasets, self.scripts = make_corpus(
                with_tables=True, seed=self.seed, **self.CORPUS
            )
        self.ds0 = self.datasets[0]
        with self.tracer.span("datasets.build_dataset"):
            self.evaluation = [
                ("cleaning", BEST_CLEANING_OF_KIND[spec.kind],
                 cleaning_datasets.build_dataset(spec, self.seed + r).drop(columns=["target"]))
                for r in range(self.ROUNDS) for spec in cleaning_datasets.SPECS
            ] + [
                ("transformation", BEST_SCALER_OF_SHAPE[spec.shape],
                 transformation_datasets.build_dataset(spec, self.seed + r)[0]
                 .drop(columns=["target"]))
                for r in range(self.ROUNDS) for spec in transformation_datasets.SPECS
            ]

    def describe_inputs(self) -> dict:
        return {
            "corpus_checksum": checksum([d.table for d in self.datasets] + [self.scripts]),
            "eval_checksum": checksum([pdf for _, _, pdf in self.evaluation]),
            "scripts": len(self.scripts),
            "recommendation_datasets": len(self.evaluation),
        }

    def warm_up(self) -> None:
        """Start the Python workers and import the abstraction layer."""
        _, corpus = make_corpus(n_datasets=1, pipelines_per_dataset=1, rows=10)
        abstract_corpus(self.spark, self.spark.createDataFrame(corpus[SCRIPTS_COLUMNS])).n_triples()

    def build(self, traced: bool):
        tables = {d.name: d.table for d in self.datasets if d.table is not None}
        if not traced:
            # train_platform after its make_corpus, on the generated corpus
            scripts_df = self.spark.createDataFrame(self.scripts[SCRIPTS_COLUMNS])
            store = abstract_corpus(self.spark, scripts_df)
            store.persist()
            return experiments.TrainedPlatform(
                store=store,
                cleaning=cl.CleaningRecommender().fit_from_kg(store, tables),
                transformation=tr.TransformationRecommender().fit_from_kg(store, tables),
            )
        # the same layer by layer, the fit_from_kg steps included
        tr_ = self.tracer
        with tr_.span("pipeline_abstraction.abstract_corpus"):
            scripts_df = self.spark.createDataFrame(self.scripts[SCRIPTS_COLUMNS])
            store = abstract_corpus(self.spark, scripts_df).persist()
        with tr_.span("cleaning.mine_cleaning_labels"):
            clean = cl.mine_cleaning_labels(store)
        with tr_.span("transformation.mine_labels"):
            scaler = tr.mine_scaler_labels(store)
            unary = tr.mine_column_transform_labels(store)
        with tr_.span("embeddings.training"):
            clean = clean[clean["dataset"].isin(tables)]
            clean_embs = np.stack(
                [table_embedding_1800(tables[d], only_missing=True) for d in clean["dataset"]]
            )
            scaler = scaler[scaler["dataset"].isin(tables)]
            scaler_embs = np.stack([table_embedding_1800(tables[d]) for d in scaler["dataset"]])
            col_embs, col_ops = [], []
            for ds, grp in unary.groupby("dataset"):
                if ds not in tables:
                    continue
                done = dict(zip(grp["column"], grp["op"]))
                for col, (fgt, emb) in column_embeddings(tables[ds]).items():
                    if fgt.value in ("int", "float"):
                        col_embs.append(emb)
                        col_ops.append(done.get(col, "none"))
        with tr_.span("gnn.fit"):
            cleaning = cl.CleaningRecommender().fit(clean_embs, list(clean["op"]))
            transformation = tr.TransformationRecommender().fit_table(
                scaler_embs, list(scaler["op"])
            )
            if col_embs:
                transformation.fit_columns(np.stack(col_embs), col_ops)
        return experiments.TrainedPlatform(store, cleaning, transformation)

    def _graph_queries(self, store: TripleStore):
        """The §5 mix on the platform's graph; keyword search needs dataset
        labels, so it runs on the LiDS graph of a traced run."""
        ds, state = self.ds0.name, {}

        def models():
            state["models"] = automl.recommend_ml_models(store, ds)
            return state["models"]

        def hyperparameters():
            return automl.recommend_hyperparameters(
                store, ds, state["models"]["classifier"].iloc[0]
            )

        return [
            ("api.get_top_used_libraries", lambda: api.get_top_used_libraries(store, 10)),
            ("api.get_top_used_libraries_task",
             lambda: api.get_top_used_libraries(store, 10, task=self.TASK)),
            ("api.get_pipelines_calling_libraries",
             lambda: api.get_pipelines_calling_libraries(store, *self.CALLED)),
            ("automl.recommend_ml_models", models),
            ("automl.recommend_hyperparameters", hyperparameters),
        ]

    def requests(self, platform, result: PassResult) -> None:
        """MIX_ROUNDS blocks, each one graph query (the whole §5 mix, call
        after call) and then its share of the lookups (per evaluation
        dataset, both recommenders, as an analyst preparing the dataset
        calls them, so every lookup does the same kind of work). The blocks
        spread both kinds of request over the whole pass, so a slow spell
        of the machine does not land on one kind only."""
        tr_ = self.tracer
        pipeline_triples = self.pipeline_triples = platform.store.df.toPandas()
        right = []
        for block in range(self.MIX_ROUNDS):
            self._graph_query(platform.store, pipeline_triples, result)
            for task, truth, pdf in self.evaluation[block::self.MIX_ROUNDS]:
                answer = self._lookup(platform, pdf, result)
                if answer is not None:
                    right.append((answer[0] if task == "cleaning" else answer[1][0]) == truth)
        tr_.count("gnn.recommend_accuracy", sum(right) / max(1, len(right)))
        # what the graph teaches: the labels mined from it against the truth
        truth = {d.name: d for d in self.datasets}
        mined = cl.mine_cleaning_labels(platform.store)
        result.hits += [float(truth[d].best_cleaning == op)
                        for d, op in zip(mined["dataset"], mined["op"])]
        mined = tr.mine_scaler_labels(platform.store)
        result.hits += [float(truth[d].best_scaler == op)
                        for d, op in zip(mined["dataset"], mined["op"])]
        mined = tr.mine_column_transform_labels(platform.store)
        result.hits += [float(truth[d].col_transforms.get(c) == op)
                        for d, c, op in zip(mined["dataset"], mined["column"], mined["op"])]

    def _graph_query(self, store: TripleStore, triples: pd.DataFrame, result: PassResult):
        ops = self._graph_queries(store)
        answers, seconds = {}, 0.0
        for name, op in ops:
            answer, dt, _ = _timed_call(None, self.errors, name, op)
            if answer is not None:
                self.tracer.call(name, dt)
                answers[name] = answer
            seconds += dt
        if len(answers) < len(ops):
            result.outcomes.append(Outcome(GRAPH, 0.0, False))
            return
        # the §5 answers against independent references, untimed
        result.outcomes.append(
            Outcome(GRAPH, seconds, self._check_graph_answers(answers, triples), seconds))

    def _lookup(self, platform, pdf: pd.DataFrame, result: PassResult):
        """Both recommendations for ``pdf``, or None if one raised."""
        tr_ = self.tracer
        if tr_.enabled:
            _, dt, _ = self.gauge.timed(lambda: table_embedding_1800(pdf))
            tr_.call("embeddings.table_embedding_1800", dt)
        cleaning, dt_c, wall_c = _timed_call(
            self.gauge, self.errors, "cleaning recommendation",
            lambda: platform.cleaning.recommend_cleaning_operations(pdf))
        transformation, dt_t, wall_t = _timed_call(
            self.gauge, self.errors, "transformation recommendation",
            lambda: platform.transformation.recommend_transformations(pdf))
        if cleaning is None or transformation is None:
            result.outcomes.append(Outcome(LOOKUP, 0.0, False))
            return None
        tr_.call("cleaning.recommend", dt_c)
        tr_.call("transformation.recommend", dt_t)
        result.outcomes.append(Outcome(
            LOOKUP, dt_c + dt_t, self._check_recommendation(cleaning, transformation),
            wall_c + wall_t))
        return cleaning, transformation

    def _check_recommendation(self, cleaning, transformation) -> bool:
        scaler, col_ops = transformation
        ok = (cleaning in cl.CLEANING_OPERATIONS and scaler in tr.TABLE_TRANSFORMS
              and set(col_ops.values()) <= set(tr.COLUMN_TRANSFORMS))
        if not ok:
            self.errors.append(f"invalid recommendation {cleaning!r}, {transformation!r}")
        return ok

    def _check_graph_answers(self, answers: dict, triples: pd.DataFrame) -> bool:
        ds = self.ds0.name
        sql = {
            "api.get_top_used_libraries": kg_checks.top_used_libraries_sql(10, None),
            "api.get_top_used_libraries_task": kg_checks.top_used_libraries_sql(10, self.TASK),
            "api.get_pipelines_calling_libraries":
                kg_checks.pipelines_calling_libraries_sql(self.CALLED),
            "automl.recommend_ml_models": kg_checks.recommend_ml_models_sql(ds, "classification"),
            "automl.recommend_hyperparameters": kg_checks.recommend_hyperparameters_sql(
                ds, answers["automl.recommend_ml_models"]["classifier"].iloc[0]
            ),
        }
        agree = True
        for name, got in answers.items():
            try:
                kg_checks.matches_oracle(got, sql[name], triples)
            except AssertionError as exc:
                self.errors.append(f"check {name}: {exc}")
                agree = False
        return agree

    def traced_extras(self, platform, result: PassResult) -> None:
        """The LiDS graph of the first corpus dataset and every script,
        keyword search on it, and the linker's check."""
        tr_, pipeline_triples = self.tracer, self.pipeline_triples
        tables = {self.ds0.name: {self.ds0.name: self.ds0.table}}
        with tr_.span("lids_graph.build_lids_graph"):
            scripts_df = self.spark.createDataFrame(self.scripts[SCRIPTS_COLUMNS])
            lids = build_lids_graph(self.spark, tables, scripts_df).persist()
        dataset_store = TripleStore(
            self.spark, lids.df.filter(lids.df.g == O.res("datasetGraph"))
        ).persist()
        with tr_.span("graph_linker.link"):
            graph_linker.link(platform.store, dataset_store).persist()
        cols = [str(c) for c in self.ds0.table.columns[:2]]
        hits, dt, _ = _timed_call(
            None, self.errors, "keyword search",
            lambda: api.search_tables_based_on_specific_columns(lids, [cols]))
        ok = hits is not None
        if ok:
            tr_.call("api.search_tables_based_on_specific_columns", dt)
            found = set(zip(hits["dataset"], hits["table"]))
            ok = found == {(self.ds0.name, self.ds0.name)}
            if not ok:
                self.errors.append(f"keyword search on own columns found {sorted(found)[:3]}")
        result.outcomes.append(Outcome(GRAPH, 0.0, ok))
        lids_triples = lids.df.toPandas()
        try:
            predicted, kept = kg_checks.check_linker(
                pipeline_triples,
                graph_linker.dropped_predictions(platform.store, dataset_store).toPandas(),
                lids_triples,
            )
        except AssertionError as exc:
            self.errors.append(f"linker check: {exc}")
            result.outcomes.append(Outcome(GRAPH, 0.0, False))
            return
        tr_.count("graph_linker.predictions_in", predicted)
        tr_.count("graph_linker.predictions_kept", kept)
        tr_.count("triples.lids_triples", len(lids_triples))
        tr_.count("triples.partitions", lids.df.rdd.getNumPartitions())

    def sizes(self, platform) -> dict:
        """The size of the graph the requests collected."""
        triples = self.pipeline_triples
        graphs = triples.loc[triples["g"].str.startswith(O.res("pipelineGraph")), "g"]
        return {
            "pipeline_abstraction.scripts_in": len(self.scripts),
            "pipeline_abstraction.pipeline_graphs_out": graphs.nunique(),
            "pipeline_abstraction.triples": len(triples),
        }


WORKLOADS = {"discovery": Discovery, "automation": Automation}
