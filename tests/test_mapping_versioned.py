"""Tests for the versioned repository and parallel migration."""

import json
import os

import pytest

import repro.mapping.versioned as versioned_module
from repro.dom.node import Element
from repro.dom.serialize import to_xml_document
from repro.mapping.migrate import migrate_repository
from repro.mapping.repository import XMLRepository
from repro.mapping.versioned import (
    VersionedRepository,
    migrate_documents,
)
from repro.schema.dtd import DTD

OLD_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), contact, education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree)>
<!ELEMENT degree (#PCDATA)>
"""
)

# The new majority inserts a DATE level and drops CONTACT.
NEW_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), education+)>
<!ELEMENT education ((#PCDATA), degree, date?)>
<!ELEMENT degree (#PCDATA)>
<!ELEMENT date (#PCDATA)>
"""
)


def old_doc(degree):
    root = Element("RESUME")
    root.append_child(Element("CONTACT"))
    education = root.append_child(Element("EDUCATION"))
    education.append_child(Element("DEGREE")).set_val(degree)
    return root


def old_repository(count=5):
    repository = XMLRepository(OLD_DTD)
    for index in range(count):
        repository.insert(old_doc(f"B.S.{index}"))
    return repository


class TestVersionedLayout:
    def test_publish_creates_version_dirs(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        assert not versioned.exists()
        version = versioned.publish(old_repository(), schema_version=1)
        assert version == 1
        assert versioned.exists()
        assert versioned.current_version() == 1
        assert (versioned.version_dir(1) / "manifest.json").exists()
        assert versioned.versions() == [1]

    def test_publish_allocates_next_version(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository())
        version = versioned.publish(old_repository())
        assert version == 2
        assert versioned.versions() == [1, 2]
        assert versioned.current_version() == 2

    def test_load_current_and_specific(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository(3), schema_version=7)
        versioned.publish(old_repository(5), schema_version=8)
        assert len(versioned.load()) == 5
        assert versioned.load().schema_version == 8
        assert len(versioned.load(version=1)) == 3
        assert versioned.load(version=1).schema_version == 7

    def test_load_without_publish_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        with pytest.raises(ValueError):
            versioned.load()

    def test_current_pointer_is_json(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository())
        pointer = json.loads(versioned.current_path.read_text())
        assert pointer == {"version": 1}

    def test_document_xml_matches_export(self, tmp_path):
        repository = old_repository(3)
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(repository)
        assert versioned.document_xml() == repository.export()


class TestRollback:
    def test_rollback_repoints_current(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository(2))
        versioned.publish(old_repository(4))
        assert versioned.rollback() == 1
        assert versioned.current_version() == 1
        assert len(versioned.load()) == 2
        # The superseded version stays on disk for roll-forward.
        assert versioned.versions() == [1, 2]

    def test_rollback_at_first_version_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository())
        with pytest.raises(ValueError):
            versioned.rollback()

    def test_rollback_empty_store_fails(self, tmp_path):
        with pytest.raises(ValueError):
            VersionedRepository(tmp_path / "repo").rollback()

    def test_activate_rolls_forward(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository(2))
        versioned.publish(old_repository(4))
        versioned.rollback()
        versioned.activate(2)
        assert versioned.current_version() == 2

    def test_activate_unknown_version_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository())
        with pytest.raises(ValueError):
            versioned.activate(9)


class TestParallelMigration:
    def test_serial_parity_with_migrate_repository(self):
        """Parallel migration over serialized documents produces exactly
        what the serial in-memory path produces."""
        repository = old_repository(6)
        serial_repo, serial_report = migrate_repository(repository, NEW_DTD)
        migrated_xml, report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=1
        )
        assert migrated_xml == [
            to_xml_document(doc) for doc in serial_repo.documents
        ]
        assert report.documents == serial_report.documents
        assert report.migrated == serial_report.migrated
        assert report.already_conforming == serial_report.already_conforming
        assert report.total_operations == serial_report.total_operations
        assert report.edit_distances == serial_report.edit_distances

    def test_inline_keeps_document_order(self):
        documents = old_repository(7).export()
        migrated_xml, _ = migrate_documents(documents, NEW_DTD, max_workers=1)
        one_by_one = [
            migrate_documents([doc], NEW_DTD, max_workers=1)[0][0]
            for doc in documents
        ]
        assert len(set(one_by_one)) == 7  # distinct, so order is checked
        assert migrated_xml == one_by_one

    @pytest.mark.slow
    def test_workers_do_not_change_output(self):
        repository = old_repository(8)
        serial_xml, serial_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=1
        )
        parallel_xml, parallel_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=2, chunk_size=3
        )
        assert parallel_xml == serial_xml
        assert parallel_report.total_operations == serial_report.total_operations
        assert parallel_report.edit_distances == serial_report.edit_distances

    @pytest.mark.slow
    @pytest.mark.parametrize("chunk_size", [1, 3, 32])
    def test_order_across_workers_and_chunk_boundaries(self, chunk_size):
        documents = old_repository(7).export()
        serial_xml, _ = migrate_documents(documents, NEW_DTD, max_workers=1)
        parallel_xml, _ = migrate_documents(
            documents, NEW_DTD, max_workers=2, chunk_size=chunk_size
        )
        assert len(set(serial_xml)) == 7  # distinct, so order is checked
        assert parallel_xml == serial_xml

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_state_built_once_per_worker(
        self, tmp_path, monkeypatch, workers
    ):
        builds = tmp_path / "builds"
        real = versioned_module._migration_state

        def logged(*args):
            with open(builds, "a") as log:
                log.write(f"{os.getpid()}\n")
            return real(*args)

        # Pool workers fork after the patch, so they inherit it.
        monkeypatch.setattr(versioned_module, "_migration_state", logged)
        migrated_xml, _ = migrate_documents(
            old_repository(6).export(), NEW_DTD,
            max_workers=workers, chunk_size=1,
        )
        assert len(migrated_xml) == 6
        pids = builds.read_text().split()
        assert len(pids) == len(set(pids)) == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_propagate(self, workers):
        documents = old_repository(3).export()
        documents.insert(1, "<RESUME/><RESUME/>")
        with pytest.raises(ValueError, match="exactly one root"):
            migrate_documents(
                documents, NEW_DTD, max_workers=workers, chunk_size=1
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_input(self, workers):
        migrated_xml, report = migrate_documents([], NEW_DTD, max_workers=workers)
        assert migrated_xml == []
        assert report.documents == 0

    def test_one_worker_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker migration spawned a pool")

        monkeypatch.setattr(versioned_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(versioned_module.os, "cpu_count", lambda: 1)
        documents = old_repository(3).export()
        # None means one worker per CPU, and 0 is clamped to 1.
        for workers in (1, 0, None):
            _, report = migrate_documents(
                documents, NEW_DTD, max_workers=workers
            )
            assert report.documents == 3

    def test_migrate_publishes_new_version(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository(4), schema_version=1)
        version, report = versioned.migrate(
            NEW_DTD, schema_version=2, max_workers=1
        )
        assert version == 2
        assert report.documents == 4
        assert report.migrated == 4
        migrated = versioned.load()
        assert migrated.schema_version == 2
        assert len(migrated) == 4
        assert migrated.dtd.render() == NEW_DTD.render()
        # Every migrated document conforms (load re-validates), and the
        # old version remains for rollback.
        assert versioned.rollback() == 1
        assert versioned.load().dtd.render() == OLD_DTD.render()

    def test_migration_metrics(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.mapping.versioned import (
            MIGRATION_DOCUMENTS,
            MIGRATION_OPERATIONS,
        )

        registry = MetricsRegistry()
        versioned = VersionedRepository(tmp_path / "repo")
        versioned.publish(old_repository(3))
        versioned.migrate(NEW_DTD, max_workers=1, registry=registry)
        assert registry.counter(MIGRATION_DOCUMENTS).value == 3
        assert registry.counter(MIGRATION_OPERATIONS).value > 0

    def test_already_conforming_documents_skip_repair(self):
        repository = old_repository(3)
        migrated_xml, report = migrate_documents(
            repository.export(), OLD_DTD, max_workers=1
        )
        assert report.already_conforming == 3
        assert report.migrated == 0
        assert migrated_xml == repository.export()
