"""The reproduction's SparkSession configuration, shared by jobs and tests.

Broadcast joins are disabled session-wide so that shuffle/join code paths
are exercised at test scale; a query that wants a broadcast join sets the
threshold back itself. Master and driver memory are not set here: they are
read at JVM launch, from the ``spark-submit`` command line or from
``PYSPARK_SUBMIT_ARGS``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    """Session with the reproduction's standard configs applied."""
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
