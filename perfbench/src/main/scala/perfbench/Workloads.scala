package perfbench

import scala.collection.mutable
import repro.core._
import repro.graph.{Datasets, DynamicGraph, EdgeUpdate}
import repro.landmark.Landmark

/** A workload's inputs, made once per run from the loaded dataset. Every
  * batch holds one update (§6.1).
  */
final case class Inputs(numVertices: Int, initial: Vector[(Int, Int, Int, Byte)],
                        stream: Vector[EdgeUpdate]) {
  val batches: Vector[Seq[EdgeUpdate]] = stream.map(u => List(u))
}

/** The engines of one pass over a workload's stream, built with the public
  * constructors `Workload.run` uses and driven only through `initialRun`,
  * `applyBatch`, `currentStates` and the public counters.
  *
  * With a `tracer`, each public engine call gets a span. With `counters`,
  * the engines read the graph through a [[CountingView]] and their DroppedVT
  * through a [[ShadowDroppedVT]].
  */
abstract class Pass(tracer: Tracer) {
  /** Query registration: every engine's `initialRun()`, or `new Landmark`. */
  def register(): Unit

  /** Applies batch `i` to every engine, and answers the landmark queries. */
  def applyBatch(i: Int): Unit

  /** The outputs the oracle checks after batch `i` (-1: after registration);
    * `checkpoint` asks for the full set.
    */
  def outputs(i: Int, checkpoint: Boolean): Array[Double]

  /** Properties broken after batch `i`, given the oracle's outputs. */
  def violations(i: Int, expected: Array[Double]): Int = 0

  /** Memory-model bytes of all differential state. */
  def stateBytes: Long

  /** Reference work a traced pass times after batch `i`, off the batch clock. */
  def reference(i: Int): Unit = ()

  /** Per-layer figures at stream end: totals, not rates. */
  def layerFigures: Map[String, Double]

  /** Per-call latency samples (ns) of traced passes, by metric name. */
  val callSamples: mutable.Map[String, mutable.ArrayBuffer[Long]] = mutable.Map.empty

  protected def traced: Boolean = tracer != null

  protected def begin(name: String): Int = if (tracer == null) -1 else tracer.begin(name)

  /** Closes a span and returns its duration, or 0 when untraced. */
  protected def end(id: Int): Long =
    if (tracer == null) 0L else { tracer.end(id); tracer.durationNs(id) }

  protected def sample(metric: String, ns: Long): Unit =
    callSamples.getOrElseUpdate(metric, mutable.ArrayBuffer.empty[Long]) += ns
}

/** A benchmark workload: a dataset, a stream and a query set. */
abstract class Workload(val name: String) {
  def dataset: Datasets.Config

  /** The update stream one pass applies. */
  def stream(data: Datasets.DynData): Vector[EdgeUpdate]

  /** Untimed repetitions of query registration after the warm-up pass, and
    * timed ones before each timed pass (besides the pass's own).
    */
  def initialWarmups: Int
  def initialRepsPerPass: Int

  /** Name of the per-layer metric that reports registration time. */
  def initialLayer: String

  def newPass(in: Inputs, tracer: Tracer, counters: LayerCounters): Pass

  /** What the oracle expects of `outputs(i, checkpoint)`. */
  def expected(oracle: EdgeMultiset, in: Inputs, i: Int, checkpoint: Boolean): Array[Double]

  /** True when every batch is checked, not only the checkpoints. */
  def checksEveryBatch: Boolean = false

  /** The specs `ScratchEngine` runs for `scratch.initial_ms` (none: skipped). */
  def scratchSpecs(in: Inputs): Seq[IFESpec] = Nil
}

object Workloads {
  val all: Seq[Workload] = Seq(SsspPatents, WccPatents, KhopSkDd, LandmarkSk)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Query sources: the hash `Experiments` uses. */
  def sourceOf(numVertices: Int, q: Int): Int = ((q * 2654435761L) % numVertices).toInt.abs

  /** The Prob-Drop filter size `Workload` and `QueryFleet` use. */
  val BloomCapacity = 8192L
}

import Workloads.sourceOf

/** JOD + Prob-Drop engines, one private graph copy per query, as
  * `Workload.run` builds them.
  */
final class JodPass(in: Inputs, queries: Int, p: Double, mkSpec: (DynamicGraph, Int) => IFESpec,
                    tracer: Tracer, counters: LayerCounters) extends Pass(tracer) {
  private val graphs = IndexedSeq.fill(queries)(DynamicGraph.fromEdges(in.numVertices, in.initial))
  private val probVTs = graphs.map(_ => new ProbDroppedVT(Workloads.BloomCapacity))
  val engines: IndexedSeq[Jod] = graphs.indices.map { q =>
    val g = graphs(q)
    val base = mkSpec(g, q)
    val spec = if (counters == null) base else new CountingSpec(base, counters)
    val vt = if (counters == null) probVTs(q) else new ShadowDroppedVT(probVTs(q), counters)
    new Jod(spec, DropPolicy.Degree(p, 2, g.degreePercentile(80), 1000L + q), vt)
  }
  private var afterRegister = Array(0L, 0L, 0L)
  private var checkRecomputes = 0L

  private def totals: Array[Long] = Array(engines.map(_.totalDiffsWritten).sum,
    engines.map(_.droppedCount).sum, engines.map(_.recomputeCount).sum)

  def register(): Unit = {
    engines.foreach { e => val s = begin("jod.initialRun"); e.initialRun(); end(s) }
    afterRegister = totals
  }

  def applyBatch(i: Int): Unit = {
    val b = in.batches(i)
    var q = 0
    while (q < engines.size) {
      val s = begin("jod.applyBatch")
      engines(q).applyBatch(b)
      end(s)
      q += 1
    }
  }

  def outputs(i: Int, checkpoint: Boolean): Array[Double] = {
    // currentStates() recomputes dropped differences; keep those recomputes
    // out of the maintenance counts.
    val before = engines.map(_.recomputeCount).sum
    val out = engines.flatMap(_.currentStates()).toArray
    checkRecomputes += engines.map(_.recomputeCount).sum - before
    out
  }

  def stateBytes: Long = engines.map(_.memoryBytes).sum

  def layerFigures: Map[String, Double] = {
    val t = totals
    Map(
      "jod.diffs_written" -> (t(0) - afterRegister(0)).toDouble,
      "jod.drops" -> (t(1) - afterRegister(1)).toDouble,
      "jod.drop_recomputes" -> (t(2) - afterRegister(2) - checkRecomputes).toDouble,
      "jod.diffs_stored" -> engines.map(_.storedDiffCount).sum.toDouble,
      "droppedvt.bytes" -> probVTs.map(_.sizeBytes).sum.toDouble,
      "bloom.expected_fpr" -> probVTs.map(_.bloom.expectedFpr).sum / probVTs.size,
    )
  }
}

/** DD stand-in: VDC with the version dimension merged every 10 batches. */
final class VdcPass(in: Inputs, queries: Int, mkSpec: (DynamicGraph, Int) => IFESpec,
                    tracer: Tracer, counters: LayerCounters) extends Pass(tracer) {
  val MergeEvery = 10
  val engines: IndexedSeq[Vdc] = (0 until queries).map { q =>
    val base = mkSpec(DynamicGraph.fromEdges(in.numVertices, in.initial), q)
    new Vdc(if (counters == null) base else new CountingSpec(base, counters), mergeEvery = MergeEvery)
  }

  def register(): Unit = engines.foreach { e => val s = begin("vdc.initialRun"); e.initialRun(); end(s) }

  def applyBatch(i: Int): Unit = {
    val b = in.batches(i)
    var ns = 0L
    var q = 0
    while (q < engines.size) {
      val s = begin("vdc.applyBatch")
      engines(q).applyBatch(b)
      ns += end(s)
      q += 1
    }
    // Batch i is version i + 1; versions divisible by MergeEvery merge.
    if (traced) sample(if ((i + 1) % MergeEvery == 0) "vdc.merge_batch_us" else "vdc.plain_batch_us", ns)
  }

  def outputs(i: Int, checkpoint: Boolean): Array[Double] = engines.flatMap(_.currentStates()).toArray

  def stateBytes: Long = engines.map(_.memoryBytes).sum

  def layerFigures: Map[String, Double] = Map(
    "vdc.diffs" -> engines.map(_.diffCount).sum.toDouble,
    "vdc.j_diffs" -> engines.map(_.jDiffCount).sum.toDouble,
  )
}

/** Scratch-Landmark (§6.6): after every batch the next two of the fixed
  * (s, d) pairs are answered by `prunedSpsp`.
  */
final class LandmarkPass(in: Inputs, pairs: IndexedSeq[(Int, Int)], tracer: Tracer)
    extends Pass(tracer) {
  private val graph = DynamicGraph.fromEdges(in.numVertices, in.initial)
  private var lm: Landmark = null
  private val answers = new Array[Double](LandmarkSk.QueriesPerBatch)

  private def pairOf(i: Int, k: Int): (Int, Int) =
    pairs((i * LandmarkSk.QueriesPerBatch + k) % pairs.size)

  def register(): Unit = {
    val s = begin("landmark.new")
    lm = new Landmark(graph, Landmark.topDegree(graph, 10))
    end(s)
  }

  def applyBatch(i: Int): Unit = {
    var s = begin("landmark.applyBatch")
    lm.applyBatch(in.batches(i))
    if (traced) sample("landmark.maintain_us", end(s))
    var k = 0
    while (k < answers.length) {
      val (src, dst) = pairOf(i, k)
      s = begin("landmark.prunedSpsp")
      answers(k) = lm.prunedSpsp(src, dst)
      if (traced) sample("landmark.query_us", end(s))
      k += 1
    }
  }

  /** The unpruned cost Fig 9 compares against: `scratchSpsp` on the pairs
    * of every 7th batch, which still visits all pairs (7 and the pair cycle
    * of 10 batches are coprime) at a tenth of the time.
    */
  override def reference(i: Int): Unit = if (i % 7 == 0) {
    var k = 0
    while (k < answers.length) {
      val (src, dst) = pairOf(i, k)
      val t0 = System.nanoTime()
      Landmark.scratchSpsp(lm.graph, src, dst)
      sample("landmark.scratch_query_us", System.nanoTime() - t0)
      k += 1
    }
  }

  def outputs(i: Int, checkpoint: Boolean): Array[Double] = {
    val batch = if (i < 0) Array.empty[Double] else answers.clone()
    if (checkpoint) batch ++ pairs.map { case (s, d) => lm.prunedSpsp(s, d) } else batch
  }

  /** lowerBound(s, d) ≤ d(s, d) ≤ upperBound(s, d) for every checked pair. */
  override def violations(i: Int, expected: Array[Double]): Int = {
    val batchPairs = if (i < 0) Seq.empty else (0 until answers.length).map(pairOf(i, _))
    val checked = batchPairs ++ (if (expected.length > batchPairs.size) pairs else Nil)
    checked.zip(expected).count { case ((s, d), dist) =>
      !(lm.lowerBound(s, d) <= dist && dist <= lm.upperBound(s, d))
    }
  }

  def stateBytes: Long = lm.diffCount * repro.util.MemoryModel.DiffBytes

  def layerFigures: Map[String, Double] = Map("landmark.diffs" -> lm.diffCount.toDouble)
}

/** Expected outputs of per-query engines: one oracle array per query. */
private[perfbench] object PerQuery {
  def expected(queries: Int)(oracle: Int => Array[Double]): Array[Double] =
    (0 until queries).toArray.flatMap(oracle)
}

object SsspPatents extends Workload("sssp-patents-probdrop-mixed") {
  val NumQueries = 8
  def dataset: Datasets.Config = Datasets.patents(weighted = true)
  def stream(data: Datasets.DynData): Vector[EdgeUpdate] = Datasets.withDeletions(data, 0.3)
  def initialWarmups = 6
  def initialRepsPerPass = 3
  def initialLayer = "jod.initial_ms"
  private def spec(g: DynamicGraph, q: Int): IFESpec = Queries.sssp(g, sourceOf(g.numVertices, q))
  def newPass(in: Inputs, tracer: Tracer, counters: LayerCounters): Pass =
    new JodPass(in, NumQueries, 0.7, spec, tracer, counters)
  def expected(oracle: EdgeMultiset, in: Inputs, i: Int, checkpoint: Boolean): Array[Double] =
    PerQuery.expected(NumQueries)(q => Oracles.dijkstra(oracle, sourceOf(in.numVertices, q)))
  override def scratchSpecs(in: Inputs): Seq[IFESpec] = {
    val g = DynamicGraph.fromEdges(in.numVertices, in.initial)
    (0 until NumQueries).map(spec(g, _))
  }
}

object WccPatents extends Workload("wcc-patents-probdrop-mixed") {
  /** Long enough for the filter to saturate, short enough for several
    * passes per run: per-update cost grows about 13x over this prefix.
    */
  val Prefix = 80
  def dataset: Datasets.Config = Datasets.patents()
  def stream(data: Datasets.DynData): Vector[EdgeUpdate] =
    Datasets.withDeletions(data, 0.3).take(Prefix)
  def initialWarmups = 8
  def initialRepsPerPass = 3
  def initialLayer = "jod.initial_ms"
  def newPass(in: Inputs, tracer: Tracer, counters: LayerCounters): Pass =
    new JodPass(in, 1, 0.5, (g, _) => Queries.wcc(g), tracer, counters)
  def expected(oracle: EdgeMultiset, in: Inputs, i: Int, checkpoint: Boolean): Array[Double] =
    Oracles.wcc(oracle)
  override def scratchSpecs(in: Inputs): Seq[IFESpec] =
    Seq(Queries.wcc(DynamicGraph.fromEdges(in.numVertices, in.initial)))
}

object KhopSkDd extends Workload("khop-sk-dd") {
  val NumQueries = 4
  val K = 5
  /** Merge batches cost ~10^3 plain ones; this prefix keeps a pass near 3 s. */
  val Prefix = 400
  def dataset: Datasets.Config = Datasets.sk()
  def stream(data: Datasets.DynData): Vector[EdgeUpdate] = data.inserts.take(Prefix)
  def initialWarmups = 4
  def initialRepsPerPass = 2
  def initialLayer = "vdc.initial_ms"
  private def spec(g: DynamicGraph, q: Int): IFESpec = Queries.khop(g, sourceOf(g.numVertices, q), K)
  def newPass(in: Inputs, tracer: Tracer, counters: LayerCounters): Pass =
    new VdcPass(in, NumQueries, spec, tracer, counters)
  def expected(oracle: EdgeMultiset, in: Inputs, i: Int, checkpoint: Boolean): Array[Double] =
    PerQuery.expected(NumQueries)(q => Oracles.khop(oracle, sourceOf(in.numVertices, q), K))
  override def scratchSpecs(in: Inputs): Seq[IFESpec] = {
    val g = DynamicGraph.fromEdges(in.numVertices, in.initial)
    (0 until NumQueries).map(spec(g, _))
  }
}

object LandmarkSk extends Workload("landmark-sk-mixed") {
  val QueriesPerBatch = 2
  val Pairs = 20
  /** A pass of the whole tail takes ~18 s; this prefix keeps it near 3 s. */
  val Prefix = 500
  def dataset: Datasets.Config = Datasets.sk(weighted = true)
  def stream(data: Datasets.DynData): Vector[EdgeUpdate] =
    Datasets.withDeletions(data, 0.3).take(Prefix)
  def initialWarmups = 2
  def initialRepsPerPass = 1
  def initialLayer = "landmark.build_ms"
  override def checksEveryBatch = true

  /** The pairs `Experiments.fig9` queries. */
  def pairs(numVertices: Int): IndexedSeq[(Int, Int)] =
    (0 until Pairs).map(q => (sourceOf(numVertices, q), sourceOf(numVertices, q + 1000)))

  def newPass(in: Inputs, tracer: Tracer, counters: LayerCounters): Pass =
    new LandmarkPass(in, pairs(in.numVertices), tracer)

  def expected(oracle: EdgeMultiset, in: Inputs, i: Int, checkpoint: Boolean): Array[Double] = {
    val ps = pairs(in.numVertices)
    val batchPairs = if (i < 0) Seq.empty else (0 until QueriesPerBatch).map(k => ps((i * QueriesPerBatch + k) % ps.size))
    val checked = batchPairs ++ (if (checkpoint) ps else Nil)
    if (!checkpoint) checked.map { case (s, d) => Oracles.dijkstra(oracle, s, d)(d) }.toArray
    else {
      val bySource = mutable.HashMap.empty[Int, Array[Double]]
      checked.map { case (s, d) => bySource.getOrElseUpdate(s, Oracles.dijkstra(oracle, s))(d) }.toArray
    }
  }
}
