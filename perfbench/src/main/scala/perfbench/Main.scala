package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.ScratchEngine
import repro.graph.{Datasets, DynamicGraph}

/** Command-line options of one benchmark run. */
final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean,
                         traceOut: Option[String] = None, smoke: Boolean = false)

object Options {
  val Usage = "usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> " +
    "[--trace-out <file>] [--smoke]"

  def parse(args: Seq[String]): Either[String, Options] = {
    val kv = mutable.Map.empty[String, String]
    var smoke = false
    var rest = args.toList
    while (rest.nonEmpty) rest match {
      case "--smoke" :: tail => smoke = true; rest = tail
      case k :: v :: tail if k.startsWith("--") => kv(k.drop(2)) = v; rest = tail
      case other => return Left(s"unexpected argument ${other.head}")
    }
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "trace-out")
    if (unknown.nonEmpty) return Left(s"unknown option --${unknown.head}")
    for {
      w <- kv.get("workload").toRight("missing --workload")
      _ <- Workloads.byName(w).toRight(s"unknown workload $w; one of ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("--seed needs a whole number")
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight("--seconds needs a positive number")
      trace <- kv.get("trace").filter(t => t == "0" || t == "1").toRight("--trace needs 0 or 1")
    } yield Options(w, seed, secs, trace == "1", kv.get("trace-out"), smoke)
  }
}

/** One metric of the final JSON line. */
final case class Metric(name: String, value: Double, unit: String)

final case class RunResult(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]) {
  def json: String = Json.obj(Seq(
    "correct" -> correct.toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map(m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
  ))
}

/** Runs one workload: set-up, query registration, then closed-loop passes
  * over the stream, one batch after the other, each checked against the
  * oracle. Prints progress on stderr and the result as the last stdout line.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = Options.parse(args.toSeq) match {
      case Right(o) => o
      case Left(err) => System.err.println(s"$err\n${Options.Usage}"); sys.exit(2)
    }
    val result = new Runner(Workloads.byName(opts.workload).get, opts).run()
    println(result.json)
    // Spark may leave non-daemon threads behind after stop().
    sys.exit(0)
  }
}

/** The end-to-end and per-layer metric names, units and meanings are fixed:
  * later changes claim gains by these names.
  */
object MetricNames {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "initial_ms" -> "ms", "batch_p50_us" -> "us", "batch_p95_us" -> "us",
    "updates_per_s" -> "updates/s", "state_bytes" -> "bytes", "live_heap_mb" -> "MB")

  val PerLayer: Seq[(String, String)] = Seq(
    "spark.session_s" -> "s", "graph.datagen_s" -> "s", "graph.build_ms" -> "ms",
    "graph.mutate_us" -> "us",
    "graph.in_edges_scanned" -> "count/update", "graph.out_nodes_scanned" -> "count/update",
    "graph.out_edges_scanned" -> "count/update",
    "scratch.initial_ms" -> "ms", "jod.initial_ms" -> "ms",
    "jod.diffs_written" -> "count/update", "jod.drops" -> "count/update",
    "jod.drop_recomputes" -> "count/update", "jod.diffs_stored" -> "count",
    "droppedvt.probes" -> "count/update", "droppedvt.hits" -> "count/update",
    "droppedvt.false_hits" -> "count/update", "droppedvt.busy_ms" -> "ms/pass",
    "droppedvt.bytes" -> "bytes", "bloom.expected_fpr" -> "ratio",
    "vdc.plain_batch_us" -> "us", "vdc.merge_batch_us" -> "us", "vdc.diffs" -> "count",
    "vdc.j_diffs" -> "count", "vdc.initial_ms" -> "ms",
    "landmark.build_ms" -> "ms", "landmark.maintain_us" -> "us", "landmark.query_us" -> "us",
    "landmark.diffs" -> "count", "landmark.scratch_query_us" -> "us",
    "jvm.alloc_bytes_per_update" -> "bytes/update", "jvm.gc_ms" -> "ms/pass",
    "trace.overhead" -> "ratio")

  /** Per-layer counts reported per update; the rest are end-of-stream totals. */
  val PerUpdate: Set[String] = Set("graph.in_edges_scanned", "graph.out_nodes_scanned",
    "graph.out_edges_scanned", "jod.diffs_written", "jod.drops", "jod.drop_recomputes",
    "droppedvt.probes", "droppedvt.hits", "droppedvt.false_hits")
}

final class Runner(w: Workload, opts: Options) {
  private val SetupReps = if (opts.smoke) 1 else 5
  private val MidPassCheckpoints = 4
  private val SmokeBatches = 6
  private val ScratchReps = 7

  private def now(): Long = System.nanoTime()
  private def log(msg: String): Unit = System.err.println(s"[perfbench ${w.name}] $msg")

  private var attempted = 0L
  private var failed = 0L
  /** Faults not tied to one batch; any of them makes the run incorrect. */
  private val faults = mutable.ArrayBuffer.empty[String]
  private var logged = 0

  private def problem(msg: String): Unit = { if (logged < 20) log(s"CHECK: $msg"); logged += 1 }
  private def fault(msg: String): Unit = { problem(msg); faults += msg }

  // ------------------------------------------------------------------
  // Set-up: Spark session, Datasets.load, graphs and engines for a pass
  // ------------------------------------------------------------------

  private final case class SetupTimes(sessionS: Double, datagenS: Double, buildMs: Double) {
    def totalS: Double = sessionS + datagenS + buildMs / 1000
  }

  private def setupOnce(): (SetupTimes, Datasets.DynData) = {
    val t0 = now()
    val b = SparkSession.builder.master("local[2]").appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
    sys.props.get("perfbench.spark.dir").foreach { d =>
      b.config("spark.local.dir", s"$d/local").config("spark.sql.warehouse.dir", s"$d/warehouse")
    }
    val spark = b.getOrCreate()
    val t1 = now()
    val data = Datasets.load(spark, w.dataset)
    val t2 = now()
    val pass = w.newPass(Inputs(data.numVertices, data.initial, Vector.empty), null, null)
    val t3 = now()
    java.lang.ref.Reference.reachabilityFence(pass)
    spark.stop()
    (SetupTimes((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e6), data)
  }

  // ------------------------------------------------------------------
  // Oracle expectations, computed once before any timed work
  // ------------------------------------------------------------------

  private def checkpoints(len: Int): Set[Int] =
    if (opts.smoke) (0 until len).toSet
    else {
      val rnd = new java.util.SplittableRandom(opts.seed)
      val mid = Iterator.continually(rnd.nextInt(math.max(1, len - 1))).distinct
        .take(math.min(MidPassCheckpoints, math.max(0, len - 1))).toSet
      mid + (len - 1)
    }

  private def expectations(in: Inputs, cps: Set[Int]): mutable.LongMap[Array[Double]] = {
    val oracle = EdgeMultiset(in.numVertices, in.initial)
    val exp = mutable.LongMap.empty[Array[Double]]
    exp(-1L) = w.expected(oracle, in, -1, checkpoint = true)
    in.stream.indices.foreach { i =>
      oracle(in.stream(i))
      if (w.checksEveryBatch || cps(i)) exp(i.toLong) = w.expected(oracle, in, i, cps(i))
    }
    exp
  }

  // ------------------------------------------------------------------
  // Passes
  // ------------------------------------------------------------------

  private final class PassResult(val latencies: Array[Long], val initialMs: Seq[Double],
                                 val stateBytes: Long, val liveHeapMb: Double,
                                 val figures: Map[String, Double], val samples: Map[String, Seq[Long]],
                                 val allocBytes: Long, val gcMs: Double)

  private val threadBean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.toArray.map {
      case b: java.lang.management.GarbageCollectorMXBean => math.max(0L, b.getCollectionTime)
    }.sum

  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Compares a pass's outputs after batch `i` with the oracle; false on a
    * mismatch or a broken property.
    */
  private def check(pass: Pass, i: Int, exp: Array[Double], checkpoint: Boolean,
                    counters: LayerCounters): Boolean = {
    if (counters != null) counters.paused = true
    try {
      val got = pass.outputs(i, checkpoint)
      val bad = if (got.length != exp.length) got.length max exp.length
        else got.indices.count(k => got(k) != exp(k))
      val broken = pass.violations(i, exp)
      if (bad > 0) problem(s"batch $i: $bad outputs differ from the oracle")
      if (broken > 0) problem(s"batch $i: $broken landmark bounds broken")
      bad == 0 && broken == 0
    } catch {
      case NonFatal(e) => problem(s"batch $i: check threw $e"); false
    } finally if (counters != null) counters.paused = false
  }

  /** Times query registration on a fresh pass, in ms. */
  private def timeRegister(pass: Pass): Double = {
    val t0 = now()
    pass.register()
    (now() - t0) / 1e6
  }

  /** One pass over the stream on fresh graphs and engines. Its registration
    * and `extraInitialReps` more on fresh passes give initial_ms samples, so
    * that those spread over the run like the batches do.
    */
  private def runPass(in: Inputs, exp: mutable.LongMap[Array[Double]], cps: Set[Int],
                      tracer: Tracer, counters: LayerCounters, measureAlloc: Boolean,
                      ownGraphSamples: mutable.ArrayBuffer[Long], extraInitialReps: Int = 0): PassResult = {
    val initial = (0 until extraInitialReps).map(_ => timeRegister(w.newPass(in, null, null)))
    val passSpan = if (tracer == null) -1 else tracer.begin("pass")
    val pass = w.newPass(in, tracer, counters)
    val registerMs = timeRegister(pass)
    if (!check(pass, -1, exp(-1L), checkpoint = true, counters)) fault("registration: outputs differ from the oracle")
    if (counters != null) {
      if (counters.vtFalseNegatives > 0) fault("registration: DroppedVT reported a dropped pair as absent")
      counters.reset()
    }
    val own = if (ownGraphSamples == null) null else DynamicGraph.fromEdges(in.numVertices, in.initial)
    val lat = new Array[Long](in.stream.size)
    var alloc = 0L
    val gc0 = gcMillis()
    var i = 0
    while (i < in.stream.size) {
      val fn0 = if (counters == null) 0L else counters.vtFalseNegatives
      val a0 = if (measureAlloc) threadBean.getCurrentThreadAllocatedBytes else 0L
      val batchSpan = if (tracer == null) -1 else tracer.begin("batch")
      val t0 = now()
      val ok = try { pass.applyBatch(i); true } catch {
        case NonFatal(e) => problem(s"batch $i threw $e"); false
      }
      lat(i) = now() - t0
      if (tracer != null) tracer.end(batchSpan)
      if (measureAlloc) alloc += threadBean.getCurrentThreadAllocatedBytes - a0
      attempted += 1
      var good = ok
      if (good && exp.contains(i.toLong)) good = check(pass, i, exp(i.toLong), cps(i), counters)
      if (counters != null && counters.vtFalseNegatives != fn0) {
        problem(s"batch $i: DroppedVT reported a dropped pair as absent"); good = false
      }
      if (!good) failed += 1
      if (tracer != null) {
        pass.reference(i)
        val t1 = now()
        own.apply(in.batches(i))
        ownGraphSamples += now() - t1
      }
      i += 1
    }
    val gcMs = (gcMillis() - gc0).toDouble
    if (tracer != null) tracer.end(passSpan)
    val heap = liveHeapMb()
    val result = new PassResult(lat, initial :+ registerMs, pass.stateBytes, heap, pass.layerFigures,
      pass.callSamples.map { case (k, v) => k -> v.toSeq }.toMap, alloc, gcMs)
    java.lang.ref.Reference.reachabilityFence(pass)
    result
  }

  private def extraInitialReps: Int = if (opts.smoke) 0 else w.initialRepsPerPass

  /** Runs whole passes for about `seconds` of wall time (at least one): one
    * more pass starts while at least half of one still fits.
    */
  private def timedPasses(seconds: Double)(pass: => PassResult): Seq[PassResult] = {
    val start = now()
    val out = mutable.ArrayBuffer.empty[PassResult]
    var last = 0L
    while (out.isEmpty || now() - start + last / 2 < seconds * 1e9) {
      val t0 = now()
      out += pass
      last = now() - t0
    }
    out.toSeq
  }

  private def updatesPerS(ps: Seq[PassResult]): Double = {
    val pooled = Stats.pool(ps.map(_.latencies))
    pooled.length / (pooled.sum / 1e9)
  }

  // ------------------------------------------------------------------
  // The run
  // ------------------------------------------------------------------

  def run(): RunResult = {
    val t0 = now()
    val setups = (0 until SetupReps).map(_ => setupOnce())
    val data = setups.last._2
    val stream = w.stream(data)
    val in = Inputs(data.numVertices, data.initial, if (opts.smoke) stream.take(SmokeBatches) else stream)
    val cps = checkpoints(in.stream.size)
    val exp = expectations(in, cps)
    log(f"set-up ${setups.map(_._1.totalS).mkString(", ")} s; ${in.stream.size} batches, " +
      f"oracle ready at ${(now() - t0) / 1e9}%.1f s")

    // Warm-up: one pass, then registration on its own. The pass compiles
    // most of the registration path, which shares the engines' code.
    if (!opts.smoke) {
      runPass(in, exp, cps, null, null, measureAlloc = false, null)
      (0 until w.initialWarmups).foreach(_ => timeRegister(w.newPass(in, null, null)))
    }
    liveHeapMb()

    val metrics =
      if (!opts.trace) endToEnd(in, exp, cps, setups.map(_._1))
      else perLayer(in, exp, cps, setups.map(_._1))
    log(f"done in ${(now() - t0) / 1e9}%.1f s: $attempted batches, $failed failed")
    RunResult(faults.isEmpty, attempted, failed, metrics)
  }

  private def endToEnd(in: Inputs, exp: mutable.LongMap[Array[Double]], cps: Set[Int],
                       setups: Seq[SetupTimes]): Seq[Metric] = {
    val passes = timedPasses(opts.seconds)(
      runPass(in, exp, cps, null, null, measureAlloc = false, null, extraInitialReps))
    if (passes.map(_.stateBytes).distinct.size != 1) fault("state bytes differ between passes")
    val pooled = Stats.pool(passes.map(_.latencies))
    log(s"${passes.size} timed passes, ${pooled.length} batches; per pass p50 us " +
      passes.map(p => Stats.percentile(p.latencies, 50) / 1000).mkString(", ") + "; updates/s " +
      passes.map(p => (p.latencies.length / (p.latencies.sum / 1e9)).round).mkString(", ") +
      "; initial ms " + passes.flatMap(_.initialMs).map(_.round).mkString(", "))
    val values = Map(
      "setup_s" -> Stats.median(setups.map(_.totalS)),
      "initial_ms" -> Stats.median(passes.flatMap(_.initialMs)),
      "batch_p50_us" -> Stats.percentile(pooled, 50) / 1e3,
      "batch_p95_us" -> Stats.percentile(pooled, 95) / 1e3,
      "updates_per_s" -> updatesPerS(passes),
      "state_bytes" -> passes.last.stateBytes.toDouble,
      "live_heap_mb" -> Stats.median(passes.map(_.liveHeapMb)),
    )
    MetricNames.EndToEnd.map { case (n, u) => Metric(n, values(n), u) }
  }

  private def perLayer(in: Inputs, exp: mutable.LongMap[Array[Double]], cps: Set[Int],
                       setups: Seq[SetupTimes]): Seq[Metric] = {
    val tracer = new Tracer
    val values = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    values("spark.session_s") = Stats.median(setups.map(_.sessionS))
    values("graph.datagen_s") = Stats.median(setups.map(_.datagenS))
    values("graph.build_ms") = Stats.median(setups.map(_.buildMs))
    val scratchSpecs = w.scratchSpecs(in)
    if (scratchSpecs.nonEmpty) {
      val warm = if (opts.smoke) 0 else w.initialWarmups
      val reps = if (opts.smoke) 1 else ScratchReps
      val times = (0 until warm + reps).map { _ =>
        tracer.span("scratch.initial") {
          val t0 = now()
          scratchSpecs.foreach(s => tracer.span("scratch.run")(ScratchEngine.run(s, withTrace = true)))
          (now() - t0) / 1e6
        }
      }
      values("scratch.initial_ms") = Stats.median(times.drop(warm))
    }

    // Untraced passes first: tracing wrappers would deoptimise the plain path.
    val plain = timedPasses(opts.seconds / 2)(
      runPass(in, exp, cps, null, null, measureAlloc = true, null, extraInitialReps))
    values(w.initialLayer) = Stats.median(plain.flatMap(_.initialMs))
    val plainUpdates = plain.map(_.latencies.length).sum.toDouble
    values("jvm.alloc_bytes_per_update") = plain.map(_.allocBytes).sum / plainUpdates
    values("jvm.gc_ms") = plain.map(_.gcMs).sum / plain.size

    val mutate = mutable.ArrayBuffer.empty[Long]
    var counts = Seq.empty[Map[String, Double]]
    val traced = timedPasses(opts.seconds / 2) {
      val c = new LayerCounters
      val r = runPass(in, exp, cps, tracer, c, measureAlloc = false, mutate)
      counts :+= r.figures ++ Map(
        "graph.in_edges_scanned" -> c.inEdgesScanned.toDouble,
        "graph.out_nodes_scanned" -> c.outNodesScanned.toDouble,
        "graph.out_edges_scanned" -> c.outEdgesScanned.toDouble,
        "droppedvt.probes" -> c.vtProbes.toDouble,
        "droppedvt.hits" -> c.vtHits.toDouble,
        "droppedvt.false_hits" -> c.vtFalseHits.toDouble,
      ) ++ (if (c.vtProbes > 0) Map("droppedvt.busy_ms" -> c.vtNs / 1e6) else Map.empty)
      r
    }
    // Work counts repeat exactly from pass to pass; only times may differ.
    val workCounts = counts.map(_ - "droppedvt.busy_ms")
    if (workCounts.distinct.size != 1) fault(s"work counts differ between traced passes: $workCounts")
    val perPass = counts.last
    perPass.foreach { case (k, v) =>
      values(k) = if (MetricNames.PerUpdate(k)) v / in.stream.size else v
    }
    if (perPass.contains("droppedvt.busy_ms"))
      values("droppedvt.busy_ms") = Stats.median(counts.map(_("droppedvt.busy_ms")))
    traced.last.samples.keys.foreach { k =>
      values(k) = Stats.percentile(traced.flatMap(_.samples.getOrElse(k, Nil)).toArray, 50) / 1e3
    }
    values("graph.mutate_us") = Stats.percentile(mutate.toArray, 50) / 1e3
    values("trace.overhead") = updatesPerS(traced) / updatesPerS(plain)
    log(s"${plain.size} plain and ${traced.size} traced passes")

    opts.traceOut.foreach { path =>
      tracer.write(java.nio.file.Paths.get(path),
        Map("workload" -> w.name, "seed" -> opts.seed.toString), values.toMap)
      log(s"trace written to $path")
    }
    MetricNames.PerLayer.map { case (n, u) => Metric(n, values(n), u) }
  }
}
