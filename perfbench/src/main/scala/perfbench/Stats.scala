package perfbench

/** Order statistics over the samples a run collects. */
object Stats {

  /** Nearest-rank percentile: the smallest sample with at least `p` % of
    * the samples at or below it. `p` is in (0, 100].
    */
  def percentile(samples: Array[Long], p: Double): Long = {
    require(samples.nonEmpty, "no samples")
    require(p > 0 && p <= 100, s"percentile $p outside (0, 100]")
    val sorted = samples.clone()
    java.util.Arrays.sort(sorted)
    sorted(math.max(0, math.ceil(p / 100.0 * sorted.length).toInt - 1))
  }

  /** One pool of the per-batch latencies of every timed pass. */
  def pool(passes: Seq[Array[Long]]): Array[Long] = passes.flatMap(_.toSeq).toArray

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
